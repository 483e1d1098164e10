"""A line-echo server on a unix socket: the calibration partner of the
serve workloads.

It is built like ``mlt-serve``'s front end (asyncio streams, one
``readuntil`` / ``write`` / ``drain`` per line) but contains none of
the program, so the time a fixed burst of lines takes through it tracks
what the *box* charges for two processes talking over a socket —
scheduler wake-ups, syscalls, a busy sibling CPU — and nothing a change
to ``src/`` can move.
"""

import asyncio
import sys


async def _echo(reader, writer):
    try:
        while True:
            line = await reader.readuntil(b"\n")
            writer.write(line)
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def _main(path: str) -> None:
    server = await asyncio.start_unix_server(_echo, path=path)
    async with server:
        await server.serve_forever()


if __name__ == "__main__":
    asyncio.run(_main(sys.argv[1]))
