"""TDS records, the TDL->TDS frontend, and the mini-TableGen."""

import pytest

from repro.tactics import parse_tdl, parse_tds, tdl_to_tds
from repro.tactics.tablegen import TableGenBackend, TableGenError
from repro.tactics.tds import BuilderSpec
from repro.tactics.tdl.ast import TdlSyntaxError

TTGT_TEXT = """
def TTGT {
  pattern
    C(a,b,c) += A(a,c,d) * B(d,b)
  builder
    D(f,b) = C(a,b,c) where f = a * c
    E(f,d) = A(a,c,d) where f = a * c
    D(f,b) += E(f,d) * B(d,b)
    C(a,b,c) = D(f,b) where f = a * c
}
"""


def _ttgt_record():
    return tdl_to_tds(parse_tdl(TTGT_TEXT)[0])


class TestFrontend:
    def test_ttgt_decomposition_matches_listing4(self):
        record = _ttgt_record()
        kinds = [b.kind for b in record.builders]
        # transpose C, reshape->D, reshape A->E, matmul, reshape, transpose
        assert kinds == [
            "transposeBuilder",
            "reshapeBuilder",
            "reshapeBuilder",
            "matmulBuilder",
            "reshapeBuilder",
            "transposeBuilder",
        ]

    def test_transpose_permutation(self):
        record = _ttgt_record()
        assert record.builders[0].expr == [0, 2, 1]
        assert record.builders[-1].expr == [0, 2, 1]

    def test_reshape_groups(self):
        record = _ttgt_record()
        assert record.builders[1].expr == [[0, 1], [2]]

    def test_matmul_operands(self):
        record = _ttgt_record()
        matmul = record.builders[3]
        assert matmul.outs == ["D"]
        assert matmul.ins[1] == "B"

    def test_gemm_is_single_matmul(self):
        record = tdl_to_tds(
            parse_tdl("def G { pattern = builder C(i,j) += A(i,k) * B(k,j) }")[0]
        )
        assert len(record.builders) == 1
        assert record.builders[0].kind == "matmulBuilder"
        assert record.builders[0].ins == ["A", "B"]

    def test_matvec_orientations(self):
        normal = tdl_to_tds(
            parse_tdl("def M { pattern = builder y(i) += A(i,j) * x(j) }")[0]
        )
        assert normal.builders[0].kind == "matvecBuilder"
        assert normal.builders[0].expr is None
        trans = tdl_to_tds(
            parse_tdl("def M { pattern = builder y(j) += A(i,j) * x(i) }")[0]
        )
        assert trans.builders[0].expr == [1, 0]

    def test_conv_detected(self):
        record = tdl_to_tds(
            parse_tdl(
                "def C { pattern = builder "
                "O(n,f,y,x) += I(n,c,y+kh,x+kw) * K(f,c,kh,kw) }"
            )[0]
        )
        assert record.builders[0].kind == "convBuilder"
        assert record.builders[0].ins == ["I", "K"]

    def test_identity_copy_produces_nothing(self):
        record = tdl_to_tds(
            parse_tdl(
                """
                def T {
                  pattern C(i,j) += A(i,k) * B(k,j)
                  builder
                    C(i,j) += A(i,k) * B(k,j)
                }
                """
            )[0]
        )
        assert len(record.builders) == 1

    def test_pure_transpose_copy(self):
        record = tdl_to_tds(
            parse_tdl(
                """
                def T {
                  pattern y(j) += A(i,j) * x(i)
                  builder
                    At(j,i) = A(i,j)
                    y(j) += At(j,i) * x(i)
                }
                """
            )[0]
        )
        assert record.builders[0].kind == "transposeBuilder"
        assert record.builders[0].expr == [1, 0]

    def test_bad_matmul_orientation_rejected(self):
        with pytest.raises(TdlSyntaxError):
            tdl_to_tds(
                parse_tdl(
                    "def B { pattern = builder C(i,j) += A(k,i) * B(j,k) }"
                )[0]
            )


class TestTableGenRoundtrip:
    def test_emit_contains_listing4_elements(self):
        text = _ttgt_record().emit_tablegen()
        assert "def TTGT : Tactic<" in text
        assert "transposeBuilder<In<[C]>" in text
        assert "Expr<{0, 2, 1}>" in text
        assert "Expr<{{0, 1}, 2}>" in text

    def test_parse_emitted_text(self):
        record = _ttgt_record()
        (reparsed,) = parse_tds(record.emit_tablegen())
        assert reparsed.name == record.name
        assert str(reparsed.pattern) == str(record.pattern)
        assert reparsed.builders == record.builders

    def test_dims_preserved(self):
        record = _ttgt_record()
        (reparsed,) = parse_tds(record.emit_tablegen())
        assert reparsed.builders[0].dims == record.builders[0].dims

    def test_parse_rejects_nonsense(self):
        with pytest.raises(TableGenError):
            parse_tds("this is not tablegen")

    def test_backend_compiles_records(self):
        backend = TableGenBackend()
        tactics = backend.compile([_ttgt_record()])
        assert tactics[0].name == "TTGT"
        assert tactics[0].num_loops == 4

    def test_backend_emits_python_source(self):
        # The emitted text is the source a compiled tactic runs, and
        # executing it gives a matcher.
        from repro.dialects.affine import AffineForOp
        from repro.met import compile_c
        from repro.tactics.compiled import _MATCHER_GLOBALS

        backend = TableGenBackend()
        record = _ttgt_record()
        assert backend.emit_python(record) == backend.compile([record])[0].source
        record = tdl_to_tds(
            parse_tdl("def G { pattern = builder C(i,j) += A(i,k) * B(k,j) }")[0]
        )
        namespace = dict(_MATCHER_GLOBALS)
        exec(backend.emit_python(record), namespace)
        module = compile_c(
            "void gemm(float A[2][3], float B[3][4], float C[2][4]) {"
            " for (int i = 0; i < 2; i++) for (int j = 0; j < 4; j++)"
            " for (int k = 0; k < 3; k++) C[i][j] += A[i][k] * B[k][j]; }"
        )
        root = next(op for op in module.walk() if isinstance(op, AffineForOp))
        result, reason = namespace["match"](root)
        assert reason == "matched"
        assert result.extent_of == {"i": 2, "j": 4, "k": 3}
        assert [result.memref_of[t].type.shape for t in "CAB"] == [
            (2, 4), (2, 3), (3, 4)
        ]

    def test_compiled_tactics_pickle(self):
        import pickle

        (tactic,) = TableGenBackend().compile([_ttgt_record()])
        copy = pickle.loads(pickle.dumps(tactic))
        assert copy.source == tactic.source and copy.name == "TTGT"

    def test_backend_refuses_a_name_that_is_not_an_identifier(self):
        from repro.tactics.tdl.ast import TdlAccess, TdlIndexExpr, TdlStatement
        from repro.tactics.tds import TacticRecord

        i = TdlIndexExpr.var("i")
        pattern = TdlStatement(
            TdlAccess("C", [i]), "=", [TdlAccess("A]\nimport os", [i])]
        )
        with pytest.raises(TableGenError, match="not an identifier"):
            TableGenBackend().emit_python(TacticRecord("T", pattern, []))


class TestBuilderSpecValidation:
    def test_single_input_enforced(self):
        with pytest.raises(TdlSyntaxError):
            BuilderSpec("transposeBuilder", ["A", "B"], ["C"], [1, 0])

    def test_expr_required_for_reshape(self):
        with pytest.raises(TdlSyntaxError):
            BuilderSpec("reshapeBuilder", ["A"], ["C"])

    def test_single_output_enforced(self):
        with pytest.raises(TdlSyntaxError):
            BuilderSpec("matmulBuilder", ["A", "B"], ["C", "D"])

    def test_unknown_kind(self):
        with pytest.raises(TdlSyntaxError):
            BuilderSpec("fooBuilder", ["A"], ["B"])
