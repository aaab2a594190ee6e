"""Shared fixtures: the two-state worked example and its frozen reference
values.

PRINTED_* constants are the four-decimal values the toolkit must reproduce;
EXACT_* constants are full-precision regression anchors computed once from
the verified implementation and frozen here to catch silent drift.
"""

from __future__ import annotations

import numpy as np

from termlq import make_instance
from termlq.model import ProblemInstance


def example_instance() -> ProblemInstance:
    A = [np.array([[1.0, 2.0], [-1.0, 4.0]]),
         np.array([[5.0, 3.0], [-2.0, 1.0]]),
         np.array([[-4.0, 1.0], [2.0, 5.0]])]
    B = [np.array([[1.0], [-1.0]]),
         np.array([[2.0], [1.0]]),
         np.array([[4.0], [2.0]])]
    return make_instance(A=A, B=B, Q=np.eye(2), R=np.eye(1), H=np.eye(2),
                         x0=np.array([1.0, 2.0]), xi=np.array([6.0, 7.0]))


GOLDEN_LEARN_SEED = 7
GOLDEN_LEARN_SAMPLES = 30

PRINTED_P = {
    2: np.array([[14.1429, 14.0], [14.0, 17.6667]]),
    1: np.array([[35.3396, 4.9340], [4.9340, 3.1549]]),
    0: np.array([[1.9662, 2.2928], [2.2928, 116.0380]]),
}
PRINTED_K = {
    0: np.array([[-0.9662, -2.2928]]),
    1: np.array([[-0.9151, -1.3146]]),
    2: np.array([[0.5714, -0.6667]]),
}
PRINTED_K1 = {
    0: np.array([[0.0157, 0.0249]]),
    1: np.array([[0.0388, -0.0758]]),
    2: np.array([[-0.1905, -0.0952]]),
}
PRINTED_LAMBDA = np.array([-7.2802, -6.6461])

PRINTED_NU = {
    2: np.array([21.0, 6.0, -12.0, -4.0, 2.0, 27.0, 14.0, 1.0, 5.0,
                 21.0, 4.0, 2.0, 0.0, 0.0, 0.0]),
    1: np.array([145.2381, 162.8095, 120.0952, -5.2381, 8.3810, 229.9524,
                 172.5238, -6.8095, 13.0952, 131.2381, -5.0952, 9.9524,
                 -0.7619, -0.3810, -0.1905]),
    0: np.array([29.6266, 67.9274, 28.6266, -0.4641, -0.7384, 271.7808,
                 67.9274, -1.5965, -1.4049, 29.6266, -0.4641, -0.7384,
                 -0.9597, 0.0054, -0.9452]),
}

EXACT_P0 = np.array([[1.9662465860797766, 2.2927826970888248],
                     [2.2927826970888248, 116.03800320877988]])
EXACT_LAMBDA = np.array([-7.2802313354363903, -6.646109358569916])
EXACT_COST = 569.6978969505785

# G(2) = Phi(3,2) Bbar(2) Phi(3,2)' with Phi(3,2)=I and Gamma(2)=21
EXACT_G2 = np.array([[16.0, 8.0], [8.0, 4.0]]) / 21.0

FIXTURE_PATH = "fixtures/example_instance.json"
FIXTURE_HASH = "78b6035719ca0dcba6fc7e135be8b8a1696f20419e15009e55654b31911bbdd7"
