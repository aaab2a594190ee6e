"""Command line front end.

Subcommands: solve (model-based path), learn (model-free path against a
simulated plant or a replay log), verify (both paths plus the KKT oracle),
reach (reachability verdict), campaign (Monte Carlo sweep). Reports are
byte-deterministic JSON; exit status encodes the failure class, the
``exit_code`` of the TermLqError raised:

    0  success
    2  validation failure (bad instance data, missing seed, singular blocks)
       or an overflow: a non-finite rollout state or cost, reachability
       products, backward pass, learned fit or range test
    3  terminal target not reachable / constraint infeasible: a finite
       residual above the range tolerance
    4  rank-deficient or insufficient data
    5  I/O or parse error, an unwritable --out included

A failure writes a report with an "error" entry to --out, or to stdout when
there is no --out or it cannot be written. Its seed is the one the command
used, from --seed or the instance's learn block.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .errors import TermLqError, ValidationError
from .fileio import (
    InstanceFile,
    dumps_report,
    instance_hash,
    load_instance_file,
    read_replay_log,
    write_report,
)
from .harness import CampaignSpec, monte_carlo, verify_solution
from .model import (
    ProblemInstance,
    check_reachability,
    optimal_policy,
    rollout,
    solve_lambda,
    solve_schedule,
)
from .qlearn import (
    GaussianSpec,
    SimulatedPlant,
    learn,
    learned_policy,
    pack_symmetric,
    sample_threshold,
)

def _head(command: str, seed: int | None, inst: ProblemInstance | None) -> dict:
    head = {
        "tool": {"name": "termlq", "version": __version__},
        "command": command,
        "seed": seed,
    }
    if inst is not None:
        head["instance_hash"] = instance_hash(inst)
    return head


def _schedule_dict(sched) -> dict:
    # one row-major flat row per stage matrix
    return {name: X.reshape(len(X), -1)
            for name, X in (("P", sched.P), ("K", sched.K), ("K1", sched.K1))}


def _landing(lambda_star, traj) -> dict:
    # the multiplier and the rollout it lands, closing every solve, learn
    # and verify report
    return {"lambda_star": lambda_star,
            "trajectory": {"states": traj.states, "inputs": traj.inputs},
            "cost": traj.cost, "terminal_error": traj.terminal_error}


def _resolve_learn_options(args, doc: InstanceFile | None) -> None:
    """Settle args.seed, args.samples and args.dist for learn, verify and
    campaign: each from its flag, else from the instance's learn block, else
    its default (the identifiability threshold, GaussianSpec()). A campaign
    has no instance and leaves the sample count to each trial. Raises
    ValidationError when there is no seed or it is negative."""
    seed, l, dist = args.seed, args.samples, GaussianSpec()
    where = "pass --seed"
    if doc is not None:
        inst = doc.instance
        if seed is None:
            seed = doc.seed
        if l is None:
            l = doc.l if doc.l is not None else sample_threshold(inst.n, inst.m)
        dist, where = doc.dist, "pass --seed or set learn.seed in the instance"
    if seed is None:
        raise ValidationError(f"a seed is required ({where})")
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    args.seed, args.samples, args.dist = seed, l, dist


def _cmd_solve(args, doc: InstanceFile) -> dict:
    inst = doc.instance
    sched = solve_schedule(inst)
    lamsol = solve_lambda(sched, inst)
    traj = rollout(inst, optimal_policy(sched, lamsol.lambda_star))
    report = _head("solve", None, inst)
    report["schedule"] = _schedule_dict(sched)
    report.update(_landing(lamsol.lambda_star, traj))
    return report


def _cmd_learn(args, doc: InstanceFile) -> dict:
    inst = doc.instance
    if args.replay is not None:
        oracle = read_replay_log(args.replay, inst.n, inst.m)
    else:
        oracle = SimulatedPlant(inst)
    learned = learn(oracle, (inst.n, inst.m, inst.N), (inst.Q, inst.R, inst.H),
                    inst.x0, inst.xi, args.samples, args.dist, args.seed)
    traj = rollout(inst, learned_policy(learned))
    report = _head("learn", args.seed, inst)
    report["samples"] = args.samples
    report["schedule"] = _schedule_dict(learned)
    report["nu"] = pack_symmetric(learned.Lambda)
    report["fit"] = {
        "residuals": learned.fit_diagnostics.residual,
        "conditions": learned.fit_diagnostics.cond,
    }
    report.update(_landing(learned.lambda_star, traj))
    return report


def _cmd_verify(args, doc: InstanceFile) -> dict:
    inst = doc.instance
    sched = solve_schedule(inst)
    lamsol = solve_lambda(sched, inst)
    learned = learn(SimulatedPlant(inst), (inst.n, inst.m, inst.N),
                    (inst.Q, inst.R, inst.H), inst.x0, inst.xi, args.samples, args.dist,
                    args.seed)
    comparison = verify_solution(inst, sched, lamsol, learned)
    report = _head("verify", args.seed, inst)
    report["samples"] = args.samples
    report["schedule"] = _schedule_dict(sched)
    report.update(_landing(lamsol.lambda_star, comparison.model_trajectory))
    report["comparison"] = {
        "max_gain_error": comparison.max_gain_error,
        "lambda_error": comparison.lambda_error,
        "cost_gap": comparison.cost_gap,
        "input_gap": comparison.input_gap,
        "costate_gap": comparison.costate_gap,
        "terminal_errors": list(comparison.terminal_errors),
        "per_stage_condition": comparison.per_stage_condition,
        "kkt_cost": comparison.oracle.cost,
        "kkt_residual": comparison.oracle.kkt_residual,
    }
    return report


def _cmd_reach(args, doc: InstanceFile) -> tuple[dict, int]:
    inst = doc.instance
    result = check_reachability(inst)
    report = _head("reach", None, inst)
    report["reachable"] = result.reachable
    report["g1_rank"] = result.rank
    report["zeta"] = result.zeta
    return report, 0 if result.reachable else 3


def _cmd_campaign(args, _doc: None) -> dict:
    spec = CampaignSpec(count=args.trials, seed=args.seed, samples=args.samples)
    report = _head("campaign", args.seed, None)
    report["summary"] = dataclasses.asdict(monte_carlo(spec))
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termlq",
        description="Finite-horizon LQ control with an exact terminal-state constraint")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, instance: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if instance:
            p.add_argument("--instance", required=True, help="instance JSON file")
        p.add_argument("--out", help="report destination (default: stdout)")
        return p

    add("solve", "model-based schedule, multiplier, and rollout")
    p = add("learn", "model-free pipeline from one-step transition data")
    p.add_argument("--seed", type=int, help="probe RNG seed (required unless the instance sets one)")
    p.add_argument("--samples", type=int, help="samples per stage (default: identifiability threshold)")
    p.add_argument("--replay", help="replay log to learn from instead of a simulated plant")
    p = add("verify", "model-based vs model-free vs KKT oracle comparison")
    p.add_argument("--seed", type=int, help="probe RNG seed (required unless the instance sets one)")
    p.add_argument("--samples", type=int, help="samples per stage (default: identifiability threshold)")
    add("reach", "reachability verdict for the terminal target")
    p = add("campaign", "Monte Carlo sweep over random instances", instance=False)
    p.add_argument("--seed", type=int, help="campaign seed (required)")
    p.add_argument("--trials", type=int, default=100, help="instance count (default 100)")
    p.add_argument("--samples", type=int, help="samples per stage (default: per-instance threshold)")
    return parser


def _deliver(report: dict, out: str | None) -> None:
    if out is None:
        sys.stdout.write(dumps_report(report))
    else:
        write_report(report, out)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # one floating-point policy: an overflow or invalid operation shows
        # up at a finiteness check as a typed failure, never as a warning
        with np.errstate(all="ignore"):
            doc = None if args.command == "campaign" else load_instance_file(args.instance)
            if "seed" in args:   # before any other work, so failures report it
                _resolve_learn_options(args, doc)
            if args.command == "reach":
                report, code = _cmd_reach(args, doc)
            else:
                commands = {"solve": _cmd_solve, "learn": _cmd_learn, "verify": _cmd_verify,
                            "campaign": _cmd_campaign}
                report, code = commands[args.command](args, doc), 0
            _deliver(report, args.out)
        return code
    except (TermLqError, OSError) as exc:
        failure = _head(args.command, getattr(args, "seed", None), None)
        failure["error"] = {"code": type(exc).__name__, "message": str(exc)}
        try:
            _deliver(failure, args.out)
        except TermLqError:
            _deliver(failure, None)  # --out is unwritable: report on stdout
        print(f"termlq {args.command}: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, TermLqError) else 5


if __name__ == "__main__":
    raise SystemExit(main())
