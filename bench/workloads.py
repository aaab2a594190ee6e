"""The four benchmark workloads: seeded instance files, the CLI commands one
op runs, and the check of every op's reports against the Riccati reference.

Instances are drawn the way ``harness.random_instance`` draws them:
standard-normal A(k) and B(k), Q = R = H = I, standard-normal x0 and xi.
Even-indexed instances keep A as drawn ("native"); odd-indexed ones scale
A(k) by 1/(2 sqrt(n)) ("contractive", open-loop spectral radius about 1/2).
The native half is the distribution the campaign and the tests use, so the
long-horizon verifier defects show there; the contractive half times the
full success path. Dropping either half would hide one of the two.

A check returns None for a passing op or one failure class:

    uncaught:<Exception>  cli.main raised instead of returning an exit code
    exit:<code>           an exit code disagrees with the reference
    mismatch              two reports that must be byte-identical differ, or
                          a report lacks a field the check reads
    bounds                a report exceeds an acceptance bound, or its
                          trajectory does not follow the instance dynamics
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TERMINAL_TOL = 1e-6    # acceptance criterion 3: terminal miss, both controllers
GAP_TOL = 1e-8         # criteria 4 and 5: relative cost gap, gain gap
# a reported state may differ from A x + B u of the reported previous state
# and input by this share of |A||x| + |B||u| (17-digit reports round at 1e-17)
DYNAMICS_RTOL = 1e-9


@dataclass(frozen=True)
class Instance:
    path: Path
    A: np.ndarray      # (N+1, n, n)
    B: np.ndarray      # (N+1, n, m)
    x0: np.ndarray
    xi: np.ndarray


@dataclass(frozen=True)
class Outcome:
    """One CLI command: exit code and stdout, or the exception it raised."""

    code: int | None
    out: str
    raised: str | None = None


def draw_instance(rng: np.random.Generator, n: int, m: int, N: int,
                  contractive: bool, path: Path) -> Instance:
    A = np.array([rng.standard_normal((n, n)) for _ in range(N + 1)])
    B = np.array([rng.standard_normal((n, m)) for _ in range(N + 1)])
    x0 = rng.standard_normal(n)
    xi = rng.standard_normal(n)
    if contractive:
        A = A / (2.0 * np.sqrt(n))
    doc = {"n": n, "m": m, "N": N, "A": A.tolist(), "B": B.tolist(),
           "Q": np.eye(n).tolist(), "R": np.eye(m).tolist(), "H": np.eye(n).tolist(),
           "x0": x0.tolist(), "xi": xi.tolist()}
    # json writes floats by repr, so the file parses back to these exact arrays
    path.write_text(json.dumps(doc))
    return Instance(path=path, A=A, B=B, x0=x0, xi=xi)


def draw_pool(seed: int, tag: int, count: int, dims: tuple[int, int, int],
              directory: Path) -> list[Instance]:
    rng = np.random.default_rng(np.random.SeedSequence((seed, tag)))
    n, m, N = dims
    return [draw_instance(rng, n, m, N, i % 2 == 1, directory / f"instance{i}.json")
            for i in range(count)]


def landing_miss(inst: Instance, report: dict) -> float:
    """Terminal miss of a reported trajectory, or inf when the reported
    states do not follow x(k+1) = A(k) x(k) + B(k) u(k)."""
    X = np.asarray(report["trajectory"]["states"], dtype=float)
    U = np.asarray(report["trajectory"]["inputs"], dtype=float).reshape(len(inst.A), -1)
    pred = np.einsum("kij,kj->ki", inst.A, X[:-1]) + np.einsum("kij,kj->ki", inst.B, U)
    scale = (np.einsum("kij,kj->ki", np.abs(inst.A), np.abs(X[:-1]))
             + np.einsum("kij,kj->ki", np.abs(inst.B), np.abs(U)))
    if not np.all(np.abs(X[1:] - pred) <= DYNAMICS_RTOL * scale):
        return float("inf")
    return float(np.abs(X[-1] - inst.xi).max())


def _reports(outcomes: list[Outcome]) -> tuple[str | None, list[dict]]:
    """("uncaught:<Exception>", []) when a command raised, else (None, the
    parsed reports); exit codes are left to the caller's reference."""
    for o in outcomes:
        if o.raised is not None:
            return f"uncaught:{o.raised}", []
    return None, [json.loads(o.out) for o in outcomes]


class Workload:
    """One op = ``commands(i)`` run back to back through ``cli.main``."""

    name = ""
    why = ""

    def __init__(self, seed: int, size: str, directory: Path):
        self.seed = seed
        self.size = size
        self.directory = directory

    def prepare(self) -> None:
        """Generate and write the instance files (setup work)."""

    def commands(self, i: int) -> list[list[str]]:
        raise NotImplementedError

    def check(self, i: int, outcomes: list[Outcome]) -> str | None:
        raise NotImplementedError

    def instance(self, i: int) -> Instance:
        return self.instances[i % len(self.instances)]


class VerifyLong(Workload):
    name = "verify-long"
    why = ("verify at N=64: the O(N^3) condensed KKT oracle dominates, and the "
           "native half shows the long-horizon oracle defects")
    DIMS = {"full": (3, 2, 64), "small": (2, 1, 4)}
    pool = 64

    def prepare(self) -> None:
        self.instances = draw_pool(self.seed, 1, self.pool, self.DIMS[self.size], self.directory)

    def commands(self, i: int) -> list[list[str]]:
        # learn seed = op index; --samples left at the identifiability threshold
        return [["verify", "--instance", str(self.instance(i).path), "--seed", str(i)]]

    def check(self, i: int, outcomes: list[Outcome]) -> str | None:
        failure, reports = _reports(outcomes)
        if failure:
            return failure
        if outcomes[0].code != 0:
            return f"exit:{outcomes[0].code}"
        cmp = reports[0]["comparison"]
        ok = (cmp["cost_gap"] <= GAP_TOL and cmp["max_gain_error"] <= GAP_TOL
              and max(cmp["terminal_errors"]) <= TERMINAL_TOL
              and landing_miss(self.instance(i), reports[0]) <= TERMINAL_TOL)
        return None if ok else "bounds"


class LearnWide(Workload):
    name = "learn-wide"
    why = ("learn at 2n+m=20 (210 probes a stage) from the plant and from a "
           "replay log: the stage fits and replay I/O dominate, no oracle runs")
    DIMS = {"full": (8, 4, 16), "small": (2, 1, 3)}
    pool = 4

    def prepare(self) -> None:
        self.instances = draw_pool(self.seed, 2, self.pool, self.DIMS[self.size], self.directory)
        for j, inst in enumerate(self.instances):
            write_replay_log(inst, self._learn_seed(j), self._log(j))

    def _learn_seed(self, j: int) -> int:
        return 1000 * self.seed + j

    def _log(self, j: int) -> Path:
        return self.directory / f"replay{j}.log"

    def commands(self, i: int) -> list[list[str]]:
        j = i % len(self.instances)
        plant = ["learn", "--instance", str(self.instances[j].path),
                 "--seed", str(self._learn_seed(j))]
        return [plant, plant + ["--replay", str(self._log(j))]]

    def check(self, i: int, outcomes: list[Outcome]) -> str | None:
        failure, reports = _reports(outcomes)
        if failure:
            return failure
        for o in outcomes:
            if o.code != 0:
                return f"exit:{o.code}"
        if outcomes[0].out != outcomes[1].out:
            return "mismatch"
        ok = (reports[0]["terminal_error"] <= TERMINAL_TOL
              and landing_miss(self.instance(i), reports[0]) <= TERMINAL_TOL)
        return None if ok else "bounds"


def write_replay_log(inst: Instance, seed: int, path: Path) -> None:
    """Record the probes ``termlq learn --seed <seed>`` sends to the plant, at
    the default probe distribution and the identifiability threshold.

    Stage k draws x, u and lambda probes, in that order, from
    default_rng(SeedSequence((seed, k))); the plant answers A(k) x + B(k) u.
    One line per probe: k, then x, u, lambda and x_next at 17 digits.
    """
    N1, n, m = inst.B.shape
    d = 2 * n + m
    l = d * (d + 1) // 2
    lines = []
    for k in range(N1):
        rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
        X = rng.standard_normal((l, n))
        U = rng.standard_normal((l, m))
        L = rng.standard_normal((l, n))
        for x, u, lam in zip(X, U, L):
            x_next = inst.A[k] @ x + inst.B[k] @ u
            lines.append(" ".join([str(k)] + [format(float(v), ".17g")
                                              for v in (*x, *u, *lam, *x_next)]))
    path.write_text("\n".join(lines) + "\n")


class SolveLong(Workload):
    name = "solve-long"
    why = ("reach then solve at N=256 and 2n+m=20: report I/O and the O(N^2) "
           "reachability test dominate, no learner and no oracle run")
    DIMS = {"full": (8, 4, 256), "small": (2, 1, 8)}
    pool = 8

    def prepare(self) -> None:
        self.instances = draw_pool(self.seed, 3, self.pool, self.DIMS[self.size], self.directory)

    def commands(self, i: int) -> list[list[str]]:
        path = str(self.instance(i).path)
        return [["reach", "--instance", path], ["solve", "--instance", path]]

    def check(self, i: int, outcomes: list[Outcome]) -> str | None:
        failure, reports = _reports(outcomes)
        if failure:
            return failure
        reach, solve = outcomes
        if solve.code != 0:
            return f"exit:{solve.code}"
        miss = landing_miss(self.instance(i), reports[1])
        if not (miss <= TERMINAL_TOL and reports[1]["terminal_error"] <= TERMINAL_TOL):
            return "bounds"
        # solve landed within 1e-6 <= 1e-6 max(1, |xi|), so reach must say reachable
        if reach.code != 0:
            return f"exit:{reach.code}"
        return None if reports[0]["reachable"] is True else "mismatch"


class CampaignSmall(Workload):
    name = "campaign-small"
    why = ("20-trial campaigns at n<=4, N<=8: thousands of tiny layer calls, "
           "so per-call overhead dominates and asymptotic rewrites show their cost")
    TRIALS = {"full": 20, "small": 2}

    def commands(self, i: int) -> list[list[str]]:
        return [["campaign", "--seed", str(self.seed + i),
                 "--trials", str(self.TRIALS[self.size])]]

    def check(self, i: int, outcomes: list[Outcome]) -> str | None:
        failure, reports = _reports(outcomes)
        if failure:
            return failure
        if outcomes[0].code != 0:
            return f"exit:{outcomes[0].code}"
        s = reports[0]["summary"]
        # gain and multiplier maxima are not bounded here: criterion 5 bounds
        # them only on instances with cond(G(0)) <= 1e3, which campaign
        # reports do not identify
        ok = (s["failures"] == 0 and s["completed"] == s["trials"]
              and s["cost_gap"]["max"] <= GAP_TOL
              and s["terminal_error"]["max"] <= TERMINAL_TOL)
        return None if ok else "bounds"


WORKLOADS = {w.name: w for w in (VerifyLong, LearnWide, SolveLong, CampaignSmall)}
