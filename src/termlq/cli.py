"""Command line front end.

Subcommands: solve (model-based path), learn (model-free path against a
simulated plant or a replay log), verify (both paths plus the KKT oracle),
reach (reachability verdict), campaign (Monte Carlo sweep). Reports are
byte-deterministic JSON; exit status encodes the failure class, the
``exit_code`` of the TermLqError raised:

    0  success
    2  validation failure (bad instance data, missing seed, singular blocks,
       a non-finite rollout state or cost, reachability products that
       overflow)
    3  terminal target not reachable / constraint infeasible
    4  rank-deficient or insufficient data
    5  I/O or parse error, an unwritable --out included

A failure writes a report with an "error" entry to --out, or to stdout when
there is no --out or it cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import __version__
from .errors import TermLqError, ValidationError
from .fileio import (
    LearnSettings,
    dumps_report,
    instance_hash,
    load_instance_file,
    read_replay_log,
    write_report,
)
from .harness import CampaignSpec, monte_carlo, verify_solution
from .linalg import numerical_rank
from .model import (
    ProblemInstance,
    check_reachability,
    optimal_policy,
    rollout,
    solve_lambda,
    solve_schedule,
)
from .qlearn import (
    SimulatedPlant,
    default_gaussian_spec,
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
    # one row-major flat list per stage matrix
    return {name: X.reshape(len(X), -1).tolist()
            for name, X in (("P", sched.P), ("K", sched.K), ("K1", sched.K1))}


def _trajectory_dict(traj) -> dict:
    return {"states": traj.states.tolist(), "inputs": traj.inputs.tolist()}


def _resolve_learn_options(args, settings: LearnSettings | None, n: int, m: int):
    seed = args.seed
    if seed is None and settings is not None:
        seed = settings.seed
    if seed is None:
        raise ValidationError("a seed is required (pass --seed or set learn.seed in the instance)")
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    l = args.samples
    if l is None and settings is not None and settings.l is not None:
        l = settings.l
    if l is None:
        l = sample_threshold(n, m)
    mean = settings.mean if settings is not None else 0.0
    scale = settings.covariance_scale if settings is not None else 1.0
    dist = default_gaussian_spec(n, m, mean=mean, covariance_scale=scale)
    return int(seed), int(l), dist


def _cmd_solve(args) -> dict:
    inst = load_instance_file(args.instance).instance
    sched = solve_schedule(inst)
    lamsol = solve_lambda(sched, inst)
    traj = rollout(inst, optimal_policy(sched, lamsol.lambda_star))
    report = _head("solve", None, inst)
    report["schedule"] = _schedule_dict(sched)
    report["lambda_star"] = lamsol.lambda_star.tolist()
    report["trajectory"] = _trajectory_dict(traj)
    report["cost"] = traj.cost
    report["terminal_error"] = traj.terminal_error
    return report


def _cmd_learn(args) -> dict:
    doc = load_instance_file(args.instance)
    inst = doc.instance
    seed, l, dist = _resolve_learn_options(args, doc.learn, inst.n, inst.m)
    if args.replay is not None:
        oracle = read_replay_log(args.replay, inst.n, inst.m)
    else:
        oracle = SimulatedPlant(inst)
    learned = learn(oracle, (inst.n, inst.m, inst.N), (inst.Q, inst.R, inst.H),
                    inst.x0, inst.xi, l, dist, seed)
    traj = rollout(inst, learned_policy(learned))
    report = _head("learn", seed, inst)
    report["samples"] = l
    report["schedule"] = _schedule_dict(learned)
    report["nu"] = pack_symmetric(learned.Lambda).tolist()
    report["fit"] = {
        "residuals": learned.fit_diagnostics.residual.tolist(),
        "conditions": learned.fit_diagnostics.cond.tolist(),
    }
    report["lambda_star"] = learned.lambda_star.tolist()
    report["trajectory"] = _trajectory_dict(traj)
    report["cost"] = traj.cost
    report["terminal_error"] = traj.terminal_error
    return report


def _cmd_verify(args) -> dict:
    doc = load_instance_file(args.instance)
    inst = doc.instance
    seed, l, dist = _resolve_learn_options(args, doc.learn, inst.n, inst.m)
    sched = solve_schedule(inst)
    lamsol = solve_lambda(sched, inst)
    learned = learn(SimulatedPlant(inst), (inst.n, inst.m, inst.N),
                    (inst.Q, inst.R, inst.H), inst.x0, inst.xi, l, dist, seed)
    comparison = verify_solution(inst, sched, lamsol, learned)
    traj = comparison.model_trajectory
    report = _head("verify", seed, inst)
    report["samples"] = l
    report["schedule"] = _schedule_dict(sched)
    report["lambda_star"] = lamsol.lambda_star.tolist()
    report["trajectory"] = _trajectory_dict(traj)
    report["cost"] = traj.cost
    report["terminal_error"] = traj.terminal_error
    report["comparison"] = {
        "max_gain_error": comparison.max_gain_error,
        "lambda_error": comparison.lambda_error,
        "cost_gap": comparison.cost_gap,
        "input_gap": comparison.input_gap,
        "costate_gap": comparison.costate_gap,
        "terminal_errors": list(comparison.terminal_errors),
        "per_stage_condition": comparison.per_stage_condition.tolist(),
        "kkt_cost": comparison.oracle.cost,
        "kkt_residual": comparison.oracle.kkt_residual,
    }
    return report


def _cmd_reach(args) -> tuple[dict, int]:
    inst = load_instance_file(args.instance).instance
    result = check_reachability(inst)
    report = _head("reach", None, inst)
    report["reachable"] = result.reachable
    report["g1_rank"] = numerical_rank(result.G1)
    report["zeta"] = result.zeta.tolist() if result.zeta is not None else None
    return report, 0 if result.reachable else 3


def _cmd_campaign(args) -> dict:
    if args.seed is None:
        raise ValidationError("a seed is required (pass --seed)")
    if args.seed < 0:
        raise ValidationError("seed must be nonnegative")
    spec = CampaignSpec(count=args.trials, seed=args.seed, samples=args.samples)
    summary = monte_carlo(spec)

    def stats(s) -> dict:
        return {"max": s.max, "median": s.median, "p95": s.p95}

    report = _head("campaign", args.seed, None)
    report["summary"] = {
        "trials": summary.trials,
        "completed": summary.completed,
        "failures": summary.failures,
        "gain_error": stats(summary.gain_error),
        "lambda_error": stats(summary.lambda_error),
        "cost_gap": stats(summary.cost_gap),
        "terminal_error": stats(summary.terminal_error),
    }
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
        if args.command == "reach":
            report, code = _cmd_reach(args)
        else:
            commands = {"solve": _cmd_solve, "learn": _cmd_learn, "verify": _cmd_verify,
                        "campaign": _cmd_campaign}
            report, code = commands[args.command](args), 0
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
