"""The end-to-end + per-layer benchmark every perf or simplicity claim
is measured with.  See ``README.md`` in this directory."""
