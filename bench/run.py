"""Benchmark of sldgf: one workload per run, checked, timed from outside.

    python3 bench/run.py --workload closed_forms|member_sweeps|cli \
        --seed N --seconds S --trace 0|1

Run from the repository root. The last line of standard output is one JSON
object: correct, attempted, failed and the metrics, the end-to-end ones with
--trace 0 and the per-layer ones with --trace 1. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}

SELF_S = ("algebra.solve_linear_raw", "algebra.divexact",
          "algebra.ratfunc_normalize",
          "algebra.uni_specialize", "algebra.uni_reduce",
          "algebra.series_coefficients",
          "transfer.build_transfer_system", "transfer.family_gf",
          "transfer.iter_weps", "transfer.wep_values_by_iteration",
          "transfer.wep_by_iteration",
          "analysis.dominant_singularity", "analysis.criterion_asymptotic_ratio",
          "analysis.fidelity_asymptotic", "analysis.critical_lambda_asymptotic",
          "analysis.critical_lambda_sweep",
          "family.sld_from_wep", "family.realize",
          "oracle.sld_bruteforce_colouring", "oracle.sld_bruteforce_stabilizer",
          "cli.verify", "cli.ce", "cli.figure")
CALLS = ("algebra.uni_specialize", "transfer.wep_by_iteration",
         "analysis.dominant_singularity", "analysis.criterion_asymptotic_ratio")
FAILED = ("analysis.critical_lambda_asymptotic",)
SIZES = {"gf_den_terms": "count", "gf_num_terms": "count",
         "gf_den_deg_z": "count", "gf_coeff_bits_max": "bits",
         "step_nnz": "count"}
PHASES = {"closed_form_s": "s", "asymptotic_ops_per_s": "1/s",
          "fidelity_values_per_s": "1/s", "thresholds_s": "s",
          "verify_s": "s", "ce_s": "s", "figure_s": "s"}


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric, in report order."""
    from workloads import FAMILIES
    units = {f"{name}.self_s": "s" for name in SELF_S}
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update({f"{name}.failed": "count" for name in FAILED})
    units.update({f"transfer.{kind}.{family}": unit
                  for kind, unit in SIZES.items() for family in FAMILIES})
    units["oracle.colourings_per_s"] = "1/s"
    units["cli.startup_s"] = "s"
    units.update({f"phase.{name}": unit for name, unit in PHASES.items()})
    units["trace.pass_s"] = "s"
    return units


def per_layer_values(tracer, result) -> dict[str, float]:
    """Self times and counts per pass, times scaled to the reference speed
    like the pass times; layers a workload does not reach read 0."""
    passes = result["passes"]
    scale = result["speed_scale"]
    self_s = {name: t * scale / passes for name, t in tracer.self_times().items()}
    values = {}
    for name in per_layer_units():
        base, _, kind = name.rpartition(".")
        if kind == "self_s":
            values[name] = self_s.get(base, 0.0)
        elif kind == "calls":
            values[name] = tracer.calls.get(base, 0) / passes
        elif kind == "failed":
            values[name] = tracer.failed.get(base, 0) / passes
        elif name.startswith("phase."):
            values[name] = result["phase"].get(kind, 0.0)
        else:
            values[name] = tracer.sizes.get(name, 0)
    colouring_s = self_s.get("oracle.sld_bruteforce_colouring", 0.0)
    values["oracle.colourings_per_s"] = (tracer.colourings / passes / colouring_s
                                         if colouring_s else 0.0)
    values["cli.startup_s"] = (result.get("startup_s") or 0.0) * scale
    values["trace.pass_s"] = result["phase"]["pass_s"]
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("closed_forms", "member_sweeps", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sldgf" / "__init__.py").is_file():
        print(f"error: no sldgf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    from workloads import WORKLOADS, pin_to_one_core

    pin_to_one_core()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    result = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    out = result["out"]

    if tracer is not None:
        tracer.write(ROOT / "bench" / "out" /
                     f"trace-{args.workload}-seed{args.seed}.json")
        units = per_layer_units()
        values = per_layer_values(tracer, result)
    else:
        units = END_TO_END
        values = {"setup_s": result["setup_s"],
                  "pass_s": result["phase"]["pass_s"],
                  "peak_rss_mb": result["peak_rss_mb"]}
    print(f"workload {args.workload}, seed {args.seed}, inputs "
          f"{json.dumps(result['inputs'])}, {result['passes']} pass(es), "
          f"raw pass {result['raw_pass_s']:.4g} s, speed scale "
          f"{result['speed_scale']:.4g}")
    for name, value in result["phase"].items():
        print(f"  {name:<24} {value:.6g}")
    for line in out.unexpected:
        print(f"unexpected failure: {line}", file=sys.stderr)
    for line in out.problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not out.problems and not out.unexpected,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
