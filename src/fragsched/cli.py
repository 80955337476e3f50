"""Command-line front door.

Subcommands: ``construct`` (write a scheme file), ``inspect`` (parameters,
overlaps, design verification), ``bounds`` (plot-ready bound/expectation
CSV), ``simulate`` (seeded Monte Carlo), ``exact`` (subset-DP expectations),
``mdp`` (exact solver), ``ensemble`` (random-placement experiments) and
``reproduce`` (named experiment batteries with tolerance checks).

Every emitted artifact echoes its resolved configuration, including the
scheme hash and seed, so any output row can be regenerated from its own
header. Outputs carry no timestamps, worker count or output path: the same
experiment gives identical bytes. Timings go to stderr.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

try:
    import resource
except ImportError:  # not on every platform: the peak RSS is then left out
    resource = None

from . import analytics, engine, rng
from .constructions import (
    affine_plane,
    cyclic_shift,
    large_storage_scheme,
    projective_plane,
)
from .errors import FragschedError, InvalidParams
from .mdp import DEFAULT_MDP_CAP, exact_mean_download, mdp_solve, policy_evaluate_exact
from .model import build_scheme, conservation_laws, overlap_profile, two_design_lambda
from .scheduling import (
    MdpPolicy,
    NonadaptivePolicy,
    RandomWorkConserving,
    RankedPolicy,
    pushback,
    smallest_index_first,
    uniform_diversity,
)
from .schemefile import read_scheme, scheme_hash, write_scheme

# Reference mean download times for the order-11 projective-plane /
# 133-fragment cyclic experiment at mu=1e-5 (used by `reproduce`).
REFERENCE_MEANS = {
    "cyclic/ud": 139629.39,
    "cyclic/sif": 141507.86,
    "cyclic/pushback": 145146.52,
    "pp/sif": 122378.76,
    "pp/sif+pushback": 122394.19,
    "pp/ud": 122897.40,
    "pp/ud+pushback": 121678.81,
    "pp/harmonic-sif": 121002.69,
    "pp/harmonic-ud": 120886.04,
    "pp/harmonic-sif+pushback": 120940.41,
    "pp/harmonic-ud+pushback": 120993.85,
    "pp/greedy-ud": 121617.66,
    "cyclic/harmonic-ud": 126722.19,
    "cyclic/harmonic-sif": 126769.84,
    "cyclic/harmonic-pushback": 126783.50,
}
ACCEPTANCE_ROWS = ("pp/ud+pushback", "pp/sif", "pp/harmonic-ud", "cyclic/ud")
TABLE_TOLERANCE = 0.015


def _order_for(scheme, name: str, push: int | None):
    base = {"sif": smallest_index_first, "ud": uniform_diversity}[name](scheme)
    if push is not None:
        base = pushback(base, scheme, push)
    return base


def resolve_policy(scheme, scheduler: str, push: int | None, rank: str, tie: str,
                   init: str | None):
    """Build the policy object a set of CLI flags describes."""
    if scheduler in ("sif", "ud"):
        return NonadaptivePolicy(_order_for(scheme, scheduler, push))
    if scheduler == "random":
        return RandomWorkConserving()
    if scheduler == "ranked":
        init_order = None if init in (None, "none") else _order_for(scheme, init, push)
        return RankedPolicy(rank=rank, tie=tie, init_order=init_order)
    if scheduler == "mdp":
        return MdpPolicy(mdp_solve(scheme))
    raise InvalidParams(f"unknown scheduler {scheduler!r}")


# argparse reads an argument that starts with "-" as a flag unless it looks
# like a plain negative decimal, so "--mu -inf" never reaches the rate check.
MU_HELP = ("download rate of one server, positive and finite (default 1.0); "
           "write --mu=VALUE, such as --mu=-inf, for a value that starts with "
           "-inf or -nan or is negative in exponent form: argparse reads those "
           "as flags")
# the handler, the flags that say how or where a command runs rather than
# what it computes, and the scheme file's path, whose content ``scheme_hash``
# names: artifacts leave them out
_NOT_CONFIG = ("func", "threads", "out", "scheme")


def _config_header(args, scheme=None, **extra) -> dict:
    """An artifact's config: the command's options, ``extra``, the scheme's
    hash, and, for a command that takes ``--seed``, the seeding contract
    version its draws follow."""
    cfg = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG and v is not None}
    cfg.update(extra)
    if "seed" in cfg:
        cfg["seeding_contract"] = rng.SEEDING_CONTRACT
    if scheme is not None:
        cfg["scheme_hash"] = scheme_hash(scheme)
    return {k: cfg[k] for k in sorted(cfg)}


def _emit_json(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True, default=str) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_csv(header: dict, columns: list[str], rows, out: str | None) -> None:
    lines = [f"# {k}={header[k]}" for k in sorted(header)]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_construct(args) -> int:
    mu = args.mu
    if args.kind == "pp":
        scheme = projective_plane(_req(args, "q"), mu=mu)
    elif args.kind == "affine":
        scheme = affine_plane(_req(args, "q"), mu=mu)
    elif args.kind == "cyclic":
        scheme = cyclic_shift(_req(args, "V"), _req(args, "R"), mu=mu)
    else:  # large
        V, B, K = _req(args, "V"), _req(args, "B"), _req(args, "K")
        scheme = large_storage_scheme(V, B, K, mu=mu)
        print(
            f"note: emitted the distinct-replica reduction (R={scheme.params.R}, "
            f"K={scheme.params.K}) of the R={B * K // V} placement",
            file=sys.stderr,
        )
    write_scheme(scheme, args.out)
    p = scheme.params
    print(f"wrote {args.out}: B={p.B} V={p.V} R={p.R} K={p.K} hash={scheme_hash(scheme)}")
    return 0


def _req(args, name: str):
    val = getattr(args, name)
    if val is None:
        raise InvalidParams(f"--{name} is required for --kind {args.kind}")
    return val


def cmd_inspect(args) -> int:
    scheme = read_scheme(args.scheme)
    ov = _timed_pairs(overlap_profile, scheme, "inspect")
    lam2 = two_design_lambda(scheme, ov)
    p = scheme.params
    laws = conservation_laws(p.B, p.K, p.V, p.R, 2, lam2)
    doc = {
        "config": _config_header(args, scheme),
        "B": p.B, "V": p.V, "R": p.R, "K": p.K, "mu": p.mu,
        "alpha": str(p.alpha),
        "completely_utilizing": p.completely_utilizing,
        "tau_max": ov.tau_max,
        "lambda_max": ov.lambda_max,
        "two_design_lambda": lam2,
        "conservation_laws": list(laws),
    }
    _emit_json(doc, args.out)
    return 0


def cmd_bounds(args) -> int:
    scheme = read_scheme(args.scheme)
    p = scheme.params
    env = _timed_pairs(analytics.bound_envelope, scheme, "bounds")
    rep = analytics.random_rep_expected(p.B, p.V, p.R)
    mds = analytics.random_mds_expected(p.B, p.V, p.R)
    rows = [(ell, int(env.lower_general[ell]), int(env.lower[ell]), int(env.upper[ell]),
             f"{rep.per_ell[ell]:.6f}", f"{mds.per_ell[ell]:.6f}") for ell in range(p.V)]
    header = _config_header(args, scheme)
    _emit_csv(header, ["ell", "lb_general", "lb_design", "ub", "rep_expected", "mds_expected"],
              rows, args.out)
    return 0


def _report_rate(label: str, count: int, unit: str, start: float, extra: str = "") -> None:
    """Print on stderr the time since ``start`` and the rate of ``count``
    ``unit`` done in it, then ``extra``."""
    elapsed = time.perf_counter() - start
    print(f"{label}: {count} {unit} in {elapsed:.3f} s "
          f"({count / max(elapsed, 1e-9):,.0f} {unit}/s){extra}", file=sys.stderr)


def _peak_rss() -> str:
    """``, peak RSS <x> MiB``: this process's largest resident set so far, or
    "" where ``resource`` is missing."""
    if resource is None:
        return ""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB; bytes on macOS
    if sys.platform == "darwin":
        peak /= 1024
    return f", peak RSS {peak / 1024:.1f} MiB"


def _timed_monte_carlo(config, threads: int, label: str):
    """``engine.monte_carlo``, reporting its elapsed time and runs/s on stderr."""
    start = time.perf_counter()
    summary = engine.monte_carlo(config, threads=threads)
    _report_rate(label, config.runs, "runs", start)
    return summary


def _timed_pairs(compute, scheme, label: str):
    """``compute(scheme)``, which counts the scheme's overlaps once, reporting
    on stderr its elapsed time and the server and fragment pairs counted per
    second."""
    start = time.perf_counter()
    result = compute(scheme)
    _report_rate(label, comb(scheme.B, 2) + comb(scheme.V, 2), "pairs", start)
    return result


def _summary_doc(summary, header: dict) -> dict:
    return {
        "config": header,
        "mean_download_time": summary.mean_download_time,
        "stderr": summary.stderr,
        "ci95_lo": None if summary.ci95 is None else summary.ci95[0],
        "ci95_hi": None if summary.ci95 is None else summary.ci95[1],
        "ci_reliable": summary.ci_reliable,
        "runs": summary.runs,
        "seed": summary.master_seed,
        "mu": summary.mu,
        "policy": summary.policy_label,
        "normalized_aggregate": summary.normalized_aggregate,
    }


def cmd_simulate(args) -> int:
    scheme = read_scheme(args.scheme)
    policy = resolve_policy(scheme, args.scheduler, args.pushback, args.rank, args.tie, args.init)
    config = engine.SimulationConfig(
        scheme=scheme, policy=policy, mu=args.mu, runs=args.runs, master_seed=args.seed
    )
    summary = _timed_monte_carlo(config, args.threads, "simulate")
    header = _config_header(args, scheme, policy=policy.describe())
    doc = _summary_doc(summary, header)
    if args.format == "json":
        _emit_json(doc, args.out)
    else:
        cols = ["mean_download_time", "stderr", "ci95_lo", "ci95_hi", "runs", "seed", "policy"]
        _emit_csv(header, cols, [[doc[c] for c in cols]], args.out)
    if args.out:
        profile_path = Path(args.out).with_suffix(".profile.csv")
        rows = [
            (ell, f"{summary.mean_profile[ell]:.6f}", f"{summary.normalized_profile[ell]:.8f}")
            for ell in range(scheme.V)
        ]
        _emit_csv(header, ["ell", "mean_N", "norm_mean_N"], rows, str(profile_path))
    return 0


def cmd_exact(args) -> int:
    scheme = read_scheme(args.scheme)
    policy = resolve_policy(scheme, args.scheduler, args.pushback, args.rank, args.tie, args.init)
    start = time.perf_counter()
    result = exact_mean_download(scheme, policy, args.mu)
    # the 2^V subsets the DP is sized for
    _report_rate("exact", 1 << scheme.V, "states", start, _peak_rss())
    header = _config_header(args, scheme, policy=policy.describe())
    doc = {
        "config": header,
        "mean_download_time": float(result.mean),
        "mean_download_time_exact": str(result.mean) if result.exact else None,
        "per_ell_useful": [float(x) for x in result.per_ell_useful],
        "jensen_lower_bound": engine.mean_download_lower_bound(result.per_ell_useful, args.mu),
    }
    _emit_json(doc, args.out)
    return 0


def cmd_mdp(args) -> int:
    scheme = read_scheme(args.scheme)
    start = time.perf_counter()
    solution = mdp_solve(scheme)
    _report_rate("mdp", len(solution.values), "states", start, _peak_rss())
    doc = {
        "config": _config_header(args, scheme, cap=DEFAULT_MDP_CAP),  # the cap it ran under
        "optimal_value": float(solution.optimal_value),
        "optimal_value_exact": str(solution.optimal_value),
        "states": len(solution.values),
    }
    if args.compare_rank:
        policy = RankedPolicy(rank=args.compare_rank, tie="low")
        ev = policy_evaluate_exact(scheme, policy)
        gap = solution.optimal_value - ev.aggregate_reward
        rel = float(gap / solution.optimal_value) if solution.optimal_value else 0.0
        doc["compare"] = {
            "policy": policy.describe(),
            "aggregate_reward": float(ev.aggregate_reward),
            "relative_gap": rel,
        }
    _emit_json(doc, args.out)
    return 0


def cmd_ensemble(args) -> int:
    start = time.perf_counter()
    summary = engine.ensemble_monte_carlo(
        args.B, args.V, args.R, args.kind, args.mode, args.samples, args.seed,
        threads=args.threads,
    )
    _report_rate("ensemble", args.samples, "samples", start)
    expected = (
        analytics.random_rep_expected(args.B, args.V, args.R)
        if args.kind == "rep"
        else analytics.random_mds_expected(args.B, args.V, args.R)
    )
    header = _config_header(args)
    header["normalized_aggregate"] = summary.normalized_aggregate
    header["expected_aggregate"] = expected.aggregate
    if summary.duplicate_frequency is not None:
        header["duplicate_frequency"] = summary.duplicate_frequency
    rows = [
        (ell, f"{summary.mean_profile[ell]:.6f}", f"{summary.se_profile[ell]:.6f}",
         f"{expected.per_ell[ell]:.6f}")
        for ell in range(args.V)
    ]
    _emit_csv(header, ["ell", "mean_N", "se_N", "expected_N"], rows, args.out)
    return 0


def _reproduce_appendix_means(args) -> int:
    ring = build_scheme([{1, 4}, {1, 2}, {2, 3}, {3, 4}], mu=1.0)
    paired = build_scheme([{1, 3}, {2, 4}, {1, 3}, {2, 4}], mu=1.0)
    ok = True
    for name, scheme, want in (("ring", ring, Fraction(21, 16)), ("paired", paired, Fraction(11, 8))):
        got = exact_mean_download(scheme, RandomWorkConserving(), 1.0, exact=True).mean
        status = "ok" if got == want else "MISMATCH"
        ok &= got == want
        print(f"{name}: mean download time = {got} (expected {want}) {status}")
    return 0 if ok else 1


def _table_rows(which: str):
    rows = ACCEPTANCE_ROWS if which == "acceptance" else tuple(REFERENCE_MEANS)
    return [(name, REFERENCE_MEANS[name]) for name in rows]


def _table_orders(scheme) -> dict:
    """The placement orders the table's rows name, each built once: ``sif``
    and ``ud``, each also with ``+pushback`` on server 1, and ``pushback``,
    which is ``sif+pushback``."""
    orders = {"sif": smallest_index_first(scheme), "ud": uniform_diversity(scheme)}
    for base in ("sif", "ud"):
        orders[f"{base}+pushback"] = pushback(orders[base], scheme, 1)
    orders["pushback"] = orders["sif+pushback"]
    return orders


def _reproduce_table(args) -> int:
    mu = 1e-5
    schemes = {"pp": projective_plane(11, mu=mu), "cyclic": cyclic_shift(133, 12, mu=mu)}
    orders = {key: _table_orders(scheme) for key, scheme in schemes.items()}
    results = {}
    rows_out = []
    failures = []
    for name, target in _table_rows(args.rows):
        # a row is "<scheme>/<order>" or "<scheme>/<rank>-<order>"
        key, spec = name.split("/", 1)
        rank, _, base = spec.rpartition("-")
        order = orders[key][base]
        policy = (RankedPolicy(rank=rank, tie="low", init_order=order) if rank
                  else NonadaptivePolicy(order))
        config = engine.SimulationConfig(
            scheme=schemes[key], policy=policy, mu=mu, runs=args.runs, master_seed=args.seed
        )
        summary = _timed_monte_carlo(config, args.threads, name)
        mean = summary.mean_download_time
        rel = (mean - target) / target
        results[name] = mean
        checked = name in ACCEPTANCE_ROWS
        status = "ok" if abs(rel) <= TABLE_TOLERANCE else ("FAIL" if checked else "off")
        if checked and abs(rel) > TABLE_TOLERANCE:
            failures.append(f"{name}: {mean:.2f} vs {target:.2f} ({rel:+.2%})")
        rows_out.append((name, f"{mean:.2f}", f"{target:.2f}", f"{rel:+.4%}", status))
        print(f"{name:28s} mean={mean:11.2f} reference={target:11.2f} {rel:+.2%} {status}")
    if {"pp/harmonic-ud", "pp/ud+pushback", "cyclic/ud"} <= results.keys():
        if not results["pp/ud+pushback"] < results["cyclic/ud"]:
            failures.append("ordering: design-based did not beat cyclic")
        if not results["pp/harmonic-ud"] <= results["pp/ud+pushback"]:
            failures.append("ordering: adaptive did not improve on nonadaptive")
    if args.out:
        header = _config_header(args, mu=mu)
        _emit_csv(header, ["row", "mean", "reference", "rel_error", "status"], rows_out, args.out)
    for f in failures:
        print(f"tolerance breach: {f}", file=sys.stderr)
    return 1 if failures else 0


def cmd_reproduce(args) -> int:
    if args.what == "appendix-means":
        return _reproduce_appendix_means(args)
    return _reproduce_table(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fragsched",
        description="Replicated fragment-storage schemes and download scheduling experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="construct a scheme and write a scheme file")
    p.add_argument("--kind", choices=["pp", "affine", "cyclic", "large"], required=True)
    p.add_argument("--q", type=int, help="prime order (pp, affine)")
    p.add_argument("--V", type=int, help="fragment count (cyclic, large)")
    p.add_argument("--R", type=int, help="replication factor (cyclic)")
    p.add_argument("--B", type=int, help="server count (large)")
    p.add_argument("--K", type=int, help="per-server capacity (large)")
    p.add_argument("--mu", type=float, default=1.0, help=MU_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("inspect", help="print parameters, overlaps, design checks")
    p.add_argument("--scheme", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("bounds", help="emit bound/expectation CSV for a scheme")
    p.add_argument("--scheme", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bounds)

    def sim_flags(p, with_runs: bool):
        p.add_argument("--scheme", required=True)
        p.add_argument("--scheduler", choices=["sif", "ud", "random", "ranked", "mdp"],
                       default="random")
        p.add_argument("--pushback", type=_int_or_none, default=None,
                       help="server whose fragments other servers defer (or 'none')")
        p.add_argument("--rank", choices=["greedy", "harmonic"], default="harmonic")
        p.add_argument("--tie", choices=["low", "seeded"], default="low")
        p.add_argument("--init", choices=["sif", "ud", "none"], default="none",
                       help="initial schedule / tie order for the ranked scheduler")
        p.add_argument("--mu", type=float, default=1.0, help=MU_HELP)
        if with_runs:
            p.add_argument("--runs", type=int, default=100000)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("simulate", help="seeded Monte Carlo of the download process")
    sim_flags(p, with_runs=True)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("exact", help="exact mean download time by subset DP")
    sim_flags(p, with_runs=False)
    p.add_argument("--out")
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("mdp", help="exact optimal scheduler by backward induction")
    p.add_argument("--scheme", required=True)
    p.add_argument("--compare-rank", choices=["greedy", "harmonic"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_mdp)

    p = sub.add_parser("ensemble", help="random-placement ensemble experiments")
    p.add_argument("--kind", choices=["rep", "mds"], required=True)
    p.add_argument("--mode", choices=["server", "fragment"], required=True)
    p.add_argument("--B", type=int, required=True)
    p.add_argument("--V", type=int, required=True)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("reproduce", help="run a named experiment battery")
    p.add_argument("what", choices=["table-download-times", "appendix-means"])
    p.add_argument("--runs", type=int, default=10000)
    p.add_argument("--seed", type=int, default=20260809)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--rows", choices=["acceptance", "all"], default="acceptance")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reproduce)
    return parser


def _int_or_none(text: str):
    if text == "none":
        return None
    return int(text)


def _check_out_dir(out: str | None) -> None:
    """Refuse an ``--out`` whose directory is missing or is a file before the
    command does any work, with the error its write would raise there.
    ``simulate``'s ``.profile.csv`` sidecar goes in the same directory."""
    if out and not Path(out).parent.is_dir():
        code = errno.ENOTDIR if Path(out).parent.exists() else errno.ENOENT
        raise OSError(code, os.strerror(code), out)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out_dir(getattr(args, "out", None))
        return args.func(args)
    except (FragschedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
