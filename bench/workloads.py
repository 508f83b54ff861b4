"""The benchmark's three workloads and the checks on their outputs.

Each workload runs whole passes of the same operations until its time is
spent, times each pass, and checks every pass's outputs against
reference.py. The program is called through its module attributes
(``transfer.family_gf``, not a name bound at import), so a traced run sees
the same calls through the wrappers of spans.py.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import mpmath as mp

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ("path", "star", "cycle", "pusteblume", "complete_bipartite_2",
            "joint_squares", "grid_2")
# cycle and complete_bipartite_2: family_gf returns the fourth power of the
# true denominator, so the asymptotic ratio meets vanishing partials and
# critical_lambda_asymptotic raises NoThresholdError on every run.
KNOWN_FAILURES = {("critical_lambda_asymptotic", "cycle"),
                  ("critical_lambda_asymptotic", "complete_bipartite_2")}
SAME_DENOMINATOR = {"cycle": "path", "complete_bipartite_2": "pusteblume"}
THRESHOLD_WINDOW = 1e-9  # ten times the program's default bisection tolerance
SETUP_REPEATS = 7
SETUP_CODE = ("import sldgf\nfrom sldgf import family, transfer\n"
              "for name in family.BUILTIN_FAMILIES:\n"
              "    transfer.build_transfer_system(family.builtin(name))\n")
CALIBRATION_REF_S = 0.05


def noise_parameters(seed: int, count: int) -> list[Fraction]:
    """Distinct noise strengths k/32 with k odd in 17..29: the denominator
    is fixed, so every seed gives exact values of the same bit size."""
    return [Fraction(k, 32) for k in
            random.Random(seed).sample(range(17, 31, 2), count)]


# -- timing --------------------------------------------------------------------


def _calibration_s() -> float:
    start = perf_counter()
    ref.calibration_work()
    return perf_counter() - start


class Stopwatch:
    """Times blocks of work, raw and scaled to a reference machine speed.

    The speed of a shared host drifts, by up to 2x within seconds on the
    2-core box the reference figures come from, and each core drifts on its
    own. So the run is kept on one core, child processes included, and each
    block is also scaled by CALIBRATION_REF_S over the mean time of the
    calibration work measured just before and just after it: the scaled
    figure is the time the block takes when the calibration takes
    CALIBRATION_REF_S.
    """

    def __init__(self):
        self._last = _calibration_s()
        self.raw: Counter = Counter()
        self.scaled: Counter = Counter()

    def time(self, key: str, fn, *args):
        start = perf_counter()
        result = fn(*args)
        elapsed = perf_counter() - start
        after = _calibration_s()
        self.raw[key] += elapsed
        self.scaled[key] += elapsed * 2 * CALIBRATION_REF_S / (self._last + after)
        self._last = after
        return result


def pin_to_one_core() -> None:
    """Keep this process and its children on one core, the one the
    calibration measures."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=170)


def fresh_setup_s(argv: list[str]) -> float:
    """Median scaled wall time of a fresh interpreter running argv."""
    watch = Stopwatch()
    times = []
    for _ in range(SETUP_REPEATS):
        before = watch.scaled["setup"]
        done = watch.time("setup", _run, argv)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
        times.append(watch.scaled["setup"] - before)
    return statistics.median(times)


def run_passes(seconds: float, one_pass, out: "Outcome") -> list:
    """Whole passes until the next one would end more than half a pass
    after the time is spent; at least one. Later passes must give the first
    pass's outputs, and only the first pass's are kept, so that peak memory
    does not grow with the number of passes."""
    results, start = [], perf_counter()
    while True:
        results.append(one_pass())
        if len(results) > 1:
            out.expect(results[-1].pop("outputs") == results[0]["outputs"],
                       f"pass {len(results)} gives other outputs than pass 1")
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(results) / 2 > seconds:
            return results


def summarise(passes: list, **extra) -> dict:
    """Median over passes of each phase metric, and the run's speed scale."""
    phase = {k: statistics.median(p["times"][k] for p in passes)
             for k in passes[0]["times"]}
    raw = sum(sum(p["watch"].raw.values()) for p in passes)
    scaled = sum(sum(p["watch"].scaled.values()) for p in passes)
    return {"passes": len(passes), "phase": phase,
            "raw_pass_s": statistics.median(sum(p["watch"].raw.values())
                                            for p in passes),
            "speed_scale": scaled / raw, **extra}


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


class Outcome:
    """Operation counts and check failures of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.problems: list[str] = []

    def call(self, op: str, subject: str, fn, *args):
        """One program operation; a ValueError (the program's error base
        class) counts it as failed and yields None. A failure outside
        KNOWN_FAILURES also makes the run incorrect."""
        self.attempted += 1
        try:
            return fn(*args)
        except ValueError as exc:
            self.failed += 1
            if (op, subject) not in KNOWN_FAILURES:
                self.unexpected.append(f"{op}({subject}): {exc!r}")
            return None

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


# -- checks shared by the workloads --------------------------------------------


def _own_threshold_pair(family: str, cache: dict) -> tuple[float, float]:
    """Member thresholds lc(50), lc(100) from the published closed form."""
    if family not in cache:
        weps = ref.published_weps(family, 100)
        cache[family] = tuple(
            ref.largest_root_lambda(ref.criterion_coeffs(ref.sld_of_wep(weps[r])))
            for r in (50, 100))
    return cache[family]


def check_asymptotic_threshold(out: Outcome, family: str, value: float,
                               cache: dict) -> None:
    """An interior limit lies within 1e-3 of the Richardson extrapolant
    2 lc(100) - lc(50), since lc(r) = lc_inf + a/r + O(1/r^2). A limit at the
    boundary 1 is approached like W(r)/r, which leaves the extrapolant
    near 0.99 while lc(r) still rises."""
    lc50, lc100 = _own_threshold_pair(family, cache)
    rich = 2 * lc100 - lc50
    interior = abs(value - rich) < 1e-3
    boundary = value == 1.0 and lc50 < lc100 < 1 and rich > 0.98
    out.expect(interior or boundary,
               f"{family}: asymptotic threshold {value} against extrapolant {rich}")


def check_reference_sld(out: Outcome, family: str, r: int, own) -> None:
    """The SLD of the published expansion has A_0 = 1 and sum A_k = 2^n, and
    up to 12 qubits equals the benchmark's own stabilizer count."""
    out.expect(ref.sld_is_valid(own), f"{family} r={r}: invalid published SLD {own}")
    if len(own) - 1 <= 12:
        out.expect(own == ref.stabilizer_sld(*ref.member_graph(family, r)),
                   f"{family} r={r}: closed form differs from the stabilizer count")


def check_sld(out: Outcome, family: str, r: int, sld, own) -> None:
    """A program SLD is valid and equals the SLD of the published expansion,
    which is itself checked by check_reference_sld."""
    out.expect(ref.sld_is_valid(sld), f"{family} r={r}: invalid SLD {sld}")
    out.expect(list(sld) == own, f"{family} r={r}: SLD differs from the closed form")
    check_reference_sld(out, family, r, own)


# -- closed_forms ----------------------------------------------------------


FIDELITY_MEMBER = 60


def closed_forms(seed: int, seconds: float, tracer) -> dict:
    from sldgf import algebra, analysis, family, transfer
    (lam_seeded,) = noise_parameters(seed, 1)
    lams = [Fraction(4, 5), lam_seeded]
    point = (Fraction(1, 2), lam_seeded / 2)
    out = Outcome()
    setup = None if tracer else fresh_setup_s([sys.executable, "-c", SETUP_CODE])

    def asymptotics(f, sys_, gf):
        sing = out.call("dominant_singularity", f, lambda: analysis.dominant_singularity(
            algebra.uni_reduce(*algebra.uni_specialize(gf, *point))[1]))
        fid = {lam: out.call("fidelity_asymptotic", f, analysis.fidelity_asymptotic,
                             sys_, lam, FIDELITY_MEMBER) for lam in lams}
        lc = out.call("critical_lambda_asymptotic", f,
                      analysis.critical_lambda_asymptotic, sys_)
        return sing, fid, lc

    def one_pass():
        systems = {f: transfer.build_transfer_system(family.builtin(f))
                   for f in FAMILIES}
        watch = Stopwatch()
        gfs = {f: watch.time("closed_form_s", out.call, "family_gf", f,
                             transfer.family_gf, systems[f])
               for f in FAMILIES}
        before = out.attempted - out.failed
        asym = {f: watch.time("asymptotic_s", asymptotics, f, systems[f], gfs[f])
                for f in FAMILIES}
        ok_ops = out.attempted - out.failed - before
        return {"outputs": {"gf": gfs, "asym": asym}, "watch": watch, "times": {
            "pass_s": sum(watch.scaled.values()),
            "closed_form_s": watch.scaled["closed_form_s"],
            "asymptotic_ops_per_s": ok_ops / watch.scaled["asymptotic_s"]}}

    passes = run_passes(seconds, one_pass, out)
    rss = peak_rss_mb(resource.RUSAGE_SELF)
    cache = {}
    leading = {lam: {f: ref.leading_term(f, Fraction(1, 2), lam / 2, FIDELITY_MEMBER)
                     for f in FAMILIES} for lam in lams}
    res = passes[0]["outputs"]
    lcs = {f: res["asym"][f][2] for f in FAMILIES}
    for f in FAMILIES:
        gf = res["gf"][f]
        if gf is not None:
            out.expect(ref.equals_published(f, gf.num.terms, gf.den.terms),
                       f"{f}: GF differs from the published closed form")
        sing, fid, lc = res["asym"][f]
        if sing is not None:
            z0 = leading[lam_seeded][f][0]
            out.expect(abs(sing.z_star - z0) < mp.mpf("1e-25") * abs(z0),
                       f"{f}: dominant singularity {sing.z_star} != {z0}")
        for lam, approx in fid.items():
            if approx is not None:
                term = leading[lam][f][1]
                out.expect(abs(approx / term - 1) < mp.mpf("1e-25"),
                           f"{f}: fidelity_asymptotic at {lam} is {approx}, "
                           f"leading term {term}")
        if lc is not None:
            check_asymptotic_threshold(out, f, lc, cache)
            twin = SAME_DENOMINATOR.get(f)
            if twin and lcs[twin] is not None:
                out.expect(abs(lc - lcs[twin]) < 1e-8,
                           f"{f}: asymptotic threshold differs from {twin}'s")
    approx = res["asym"]["star"][1][Fraction(4, 5)]
    if approx is not None:
        with mp.workdps(40):
            r = FIDELITY_MEMBER
            law = (mp.mpf(8) / 9) ** r + (mp.mpf(1) / 9) ** r
            exact = ref.to_mpf(ref.star_fidelity(Fraction(4, 5), r))
            out.expect(abs(exact / approx - 1 - law) < mp.mpf("1e-30"),
                       "star: relative error at 4/5 is not (8/9)^r + (1/9)^r")
    return summarise(passes, out=out, setup_s=setup, peak_rss_mb=rss, inputs={
        "lambda": [str(x) for x in lams],
        "singularity_point": [str(x) for x in point]})


# -- member_sweeps ---------------------------------------------------------


FIDELITY_R_MAX = 400
THRESHOLD_R_MAX = 50


def member_sweeps(seed: int, seconds: float, tracer) -> dict:
    from sldgf import analysis, family, transfer
    lams = noise_parameters(seed, 2)
    out = Outcome()
    setup = None if tracer else fresh_setup_s([sys.executable, "-c", SETUP_CODE])
    members = list(range(1, THRESHOLD_R_MAX + 1))

    def fidelities(f, sys_):
        return {lam: out.call("fidelity_sweep", f, analysis.fidelity_sweep,
                              sys_, lam, FIDELITY_R_MAX) for lam in lams}

    def one_pass():
        systems = {f: transfer.build_transfer_system(family.builtin(f))
                   for f in FAMILIES}
        watch = Stopwatch()
        fid = {f: watch.time("fidelity_s", fidelities, f, systems[f])
               for f in FAMILIES}
        lc = {f: watch.time("thresholds_s", out.call, "critical_lambda_sweep", f,
                            analysis.critical_lambda_sweep, systems[f], members)
              for f in FAMILIES}
        values = sum(len(v) for d in fid.values() for v in d.values() if v is not None)
        return {"outputs": {"fid": fid, "lc": lc}, "watch": watch, "times": {
            "pass_s": sum(watch.scaled.values()),
            "fidelity_values_per_s": values / watch.scaled["fidelity_s"],
            "thresholds_s": watch.scaled["thresholds_s"]}}

    passes = run_passes(seconds, one_pass, out)
    rss = peak_rss_mb(resource.RUSAGE_SELF)
    exact = {(f, lam): ref.published_values(f, Fraction(1, 2), lam / 2, FIDELITY_R_MAX)
             for f in FAMILIES for lam in lams}
    slds = {f: [ref.sld_of_wep(w) for w in ref.published_weps(f, THRESHOLD_R_MAX)]
            for f in FAMILIES}
    # the threshold checks below rest on these published SLDs
    for f in FAMILIES:
        for r, sld in enumerate(slds[f]):
            check_reference_sld(out, f, r, sld)
    for lam in lams:
        out.expect(exact["star", lam] == [ref.star_fidelity(lam, r) for r in
                                          range(FIDELITY_R_MAX + 1)],
                   f"star: closed-form fidelities disagree with the GHZ law at {lam}")
    star_roots = {r: ref.star_threshold(r) for r in members if r >= 2}
    res = passes[0]["outputs"]
    for f in FAMILIES:
        for lam, values in res["fid"][f].items():
            if values is not None:
                out.expect(list(values) == exact[f, lam],
                           f"{f}: fidelities at lambda {lam} break the "
                           "recurrence of the published denominator")
        entries = res["lc"][f]
        if entries is None:
            continue
        out.expect([r for r, _ in entries] == members, f"{f}: members missing")
        for r, value in entries:
            coeffs = ref.criterion_coeffs(slds[f][r])
            if value is None:
                out.expect(ref.sign_at(coeffs, Fraction(1)) >= 0,
                           f"{f} r={r}: no threshold reported, but Q(1) < 0")
            elif f == "star":
                out.expect(abs(value - star_roots[r]) < THRESHOLD_WINDOW,
                           f"star r={r}: {value} != closed-form root {star_roots[r]}")
            else:
                out.expect(ref.crosses_at(coeffs, value, THRESHOLD_WINDOW),
                           f"{f} r={r}: criterion does not change sign at {value}")
    return summarise(passes, out=out, setup_s=setup, peak_rss_mb=rss,
                     inputs={"lambda": [str(x) for x in lams]})


# -- cli ---------------------------------------------------------------------


# joint_squares grows by 3 qubits a member, so 19 keeps its largest
# brute-force sweeps a quarter of path's at 21
VERIFY_MAX_QUBITS = {"path": 21, "joint_squares": 19}
CE_R_MAX = 30
FIG4_R_MAX = 40


def cli_commands() -> list[tuple[str, list[str]]]:
    out = []
    for jobs in ("1", "2"):
        for f, qubits in VERIFY_MAX_QUBITS.items():
            out.append(("verify", ["verify", "--family", f, "--max-qubits",
                                   str(qubits), "--jobs", jobs, "--format", "json"]))
    out.append(("ce", ["ce", "--family", "grid_2", "--r-max", str(CE_R_MAX),
                       "--format", "json"]))
    out.append(("figure", ["figure", "fig4", "--r-max", str(FIG4_R_MAX)]))
    return out


def _in_process(tracer):
    """Run a command through sldgf.cli.main, clearing its system cache
    first so it does the work of a fresh process."""
    from sldgf import cli

    def run(kind, argv):
        cli._cached_system.cache_clear()
        buf = io.StringIO()
        with tracer.span(f"cli.{kind}"), contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()
    return run


def _subprocess(kind, argv):
    done = _run([sys.executable, "-m", "sldgf", *argv])
    return done.returncode, done.stdout


def cli_workload(seed: int, seconds: float, tracer) -> dict:
    out = Outcome()
    setup = startup = None
    if tracer is None:
        setup = fresh_setup_s([sys.executable, "-m", "sldgf", "families"])
        runner = _subprocess
    else:
        probe = ("import time; t = time.perf_counter(); import sldgf.cli; "
                 "print(time.perf_counter() - t)")
        startup = statistics.median(float(_run([sys.executable, "-c", probe]).stdout)
                                    for _ in range(SETUP_REPEATS))
        runner = _in_process(tracer)

    def one_pass():
        watch = Stopwatch()
        outputs = []
        for kind, argv in cli_commands():
            out.attempted += 1
            code, text = watch.time(f"{kind}_s", runner, kind, argv)
            out.expect(code == 0, f"sldgf {' '.join(argv)}: exit {code}")
            outputs.append((kind, code, text))
        times = {k: watch.scaled[k] for k in ("verify_s", "ce_s", "figure_s")}
        return {"outputs": outputs, "watch": watch,
                "times": {"pass_s": sum(times.values()), **times}}

    passes = run_passes(seconds, one_pass, out)
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    cache = {}
    weps = {f: ref.published_weps(f, FIG4_R_MAX) for f in ("path", "star", "joint_squares")}
    ce_ref = ref.published_values("grid_2", Fraction(3, 4), Fraction(1, 4), CE_R_MAX)
    star_roots = {r: ref.star_threshold(r) for r in range(2, FIG4_R_MAX + 1)}
    for kind, code, text in passes[0]["outputs"]:
        # verify prints its table and exits 1 when its own results disagree
        if code != 0 and not (kind == "verify" and code == 1):
            continue
        if kind == "verify":
            _check_verify(out, json.loads(text))
        elif kind == "ce":
            rows = json.loads(text)
            out.expect([Fraction(row["c_bar"]) for row in rows] == ce_ref,
                       "ce: values break grid_2's recurrence at (3/4, 1/4)")
            out.expect(all(Fraction(row["c"]) == 1 - Fraction(row["c_bar"])
                           for row in rows), "ce: c != 1 - c_bar")
        else:
            _check_fig4(out, text, weps, star_roots, cache)
    return summarise(passes, out=out, setup_s=setup, peak_rss_mb=rss,
                     startup_s=startup,
                     inputs={"commands": [" ".join(a) for _, a in cli_commands()]})


def _check_verify(out: Outcome, doc: dict) -> None:
    f = doc["family"]
    out.expect(doc["ok"] and all(row["agree"] for row in doc["rows"]),
               f"verify {f}: program reports a mismatch")
    weps = ref.published_weps(f, doc["rows"][-1]["r"])
    for row in doc["rows"]:
        own = ref.sld_of_wep(weps[row["r"]])
        for key in ("series", "iteration", "colouring", "stabilizer"):
            if row[key] is not None:
                check_sld(out, f, row["r"], row[key], own)


def _check_fig4(out: Outcome, text: str, weps, star_roots, cache) -> None:
    rows = list(csv.DictReader(io.StringIO(text)))
    out.expect(len(rows) == 3 * FIG4_R_MAX, "fig4: wrong number of rows")
    approx_seen = {}
    for row in rows:
        f, r = row["family"], int(row["r"])
        coeffs = ref.criterion_coeffs(ref.sld_of_wep(weps[f][r]))
        if row["lambda_c"] == "":
            out.expect(ref.sign_at(coeffs, Fraction(1)) >= 0,
                       f"fig4 {f} r={r}: no threshold, but Q(1) < 0")
        elif f == "star":
            out.expect(abs(float(row["lambda_c"]) - star_roots[r]) < THRESHOLD_WINDOW,
                       f"fig4 star r={r}: {row['lambda_c']} != {star_roots[r]}")
        else:
            out.expect(ref.crosses_at(coeffs, float(row["lambda_c"]), THRESHOLD_WINDOW),
                       f"fig4 {f} r={r}: criterion does not change sign")
        approx_seen[f] = row["lambda_c_approx"]
    for f, approx in approx_seen.items():
        if approx != "":
            check_asymptotic_threshold(out, f, float(approx), cache)


WORKLOADS = {"closed_forms": closed_forms, "member_sweeps": member_sweeps,
             "cli": cli_workload}
