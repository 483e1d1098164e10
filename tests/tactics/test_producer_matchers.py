"""Listing 9: detecting matmul chains with producer-chasing m_Op."""

import pytest

from repro.dialects.linalg import MatmulOp
from repro.evaluation.kernels import matrix_chain_source
from repro.met import compile_c
from repro.tactics import raise_affine_to_linalg

from .matchers import m_Any, m_Capt, m_Op, m_ProducerOp, producer_of


def _raised_chain(dims):
    module = compile_c(matrix_chain_source(dims))
    raise_affine_to_linalg(module)
    func = module.functions[0]
    matmuls = [
        op for op in func.entry_block.operations if isinstance(op, MatmulOp)
    ]
    return module, func, matmuls


class TestProducerLookup:
    def test_finds_producing_matmul(self):
        _, _, matmuls = _raised_chain([4, 5, 6, 7])
        last = matmuls[-1]
        temp = last.a  # the T1 temporary
        assert producer_of(temp, last) is matmuls[0]

    def test_fill_is_a_producer(self):
        _, _, matmuls = _raised_chain([4, 5, 6, 7])
        first = matmuls[0]
        # the producer of C (its own output) before the matmul is the fill
        producer = producer_of(first.c, first)
        assert producer is not None and producer.name == "linalg.fill"

    def test_no_producer_for_pristine_input(self):
        _, func, matmuls = _raised_chain([4, 5, 6, 7])
        assert producer_of(matmuls[0].a, matmuls[0]) is None


class TestListing9:
    def test_chain_of_three_matches(self):
        """Listing 9 verbatim: chains of 3 matmuls, capturing inputs."""
        _, _, matmuls = _raised_chain([4, 5, 6, 7, 8])  # 4 matrices, 3 matmuls
        A, B, C, D = (m_Capt(x) for x in "ABCD")
        chain = m_ProducerOp(
            MatmulOp,
            m_ProducerOp(
                MatmulOp,
                m_ProducerOp(MatmulOp, A, B, m_Any()),
                C,
                m_Any(),
            ),
            D,
            m_Any(),
        )
        assert chain.match(matmuls[-1])
        func_args = matmuls[0].parent_block.parent_op.arguments
        assert A.get() is func_args[0]
        assert B.get() is func_args[1]
        assert C.get() is func_args[2]
        assert D.get() is func_args[3]

    def test_two_matmuls_do_not_match_three_pattern(self):
        _, _, matmuls = _raised_chain([4, 5, 6, 7])  # only 2 matmuls
        chain = m_ProducerOp(
            MatmulOp,
            m_ProducerOp(
                MatmulOp,
                m_ProducerOp(MatmulOp, m_Any(), m_Any(), m_Any()),
                m_Any(),
                m_Any(),
            ),
            m_Any(),
            m_Any(),
        )
        assert not chain.match(matmuls[-1])

    def test_single_level_matches_any_matmul(self):
        _, _, matmuls = _raised_chain([4, 5, 6, 7])
        assert m_ProducerOp(MatmulOp).match(matmuls[0])
        assert not m_ProducerOp(MatmulOp).match(
            matmuls[0].parent_block.operations[0]
        )
