#!/usr/bin/env python3
"""Validate crmc bench JSON artifacts and gate regressions.

Supports these schemas, dispatched on the artifact's "schema" field (an
artifact with any other schema, older versions included, fails as
unknown):

  crmc.bench_engine.v4   throughput grid (bench_engine_throughput --json).
      check_bench_json.py BENCH_engine.json
      check_bench_json.py NEW.json --baseline BENCH_engine.json \\
          [--max-regression 0.20] [--min-speedup 1.0]
      Validates provenance and per-kernel rates: a "metadata" object
      (cpu, compiler, dispatch, rng — non-empty strings — and lane_width,
      a positive int) and a "kernels" array of simd microbenchmark entries
      (name, backend, lanes, items_per_sec). Every grid point whose
      protocol has a trial-parallel twin carries a "trial" object —
      lane_width, rng ("philox": both sides of the comparison run the
      executor's required generator), engines.{batch,trial_batch} with the
      usual metrics, and speedup_trials_per_sec (trial_batch vs batch).
      A required top-level "sweep_throughput" object compares the sweep
      executor with per-point thread spawning — protocol, threads, points,
      trials_per_point, lane_width, spawn/executor sides (seconds,
      points_per_sec, cross-checked against points/seconds), and
      speedup_points_per_sec (cross-checked as the rate ratio).
      With --baseline, every grid point present in both files is compared
      on the batch engine's trials/sec and the check fails if any point
      regressed by more than --max-regression (default 20%). Trial counts
      may differ (quick vs full runs); points are keyed by (protocol,
      population, num_active, channels).
      --min-trial-speedup <f> requires trial.speedup_trials_per_sec >= f
      on every small-active point (num_active <= 16) carrying a trial
      block, and fails if no such point exists (the floor must not pass
      vacuously).
      --min-sweep-speedup <f> requires
      sweep_throughput.speedup_points_per_sec >= f.
      --trial-speedup-floors "proto=floor,proto2=floor" gates
      trial.speedup_trials_per_sec per protocol on the small-active
      points; every named protocol must have at least one gated point
      (no vacuous floors), and every gated point of that protocol must
      clear its floor.

  crmc.bench_faults.v1   fault-degradation grid (bench_fault_tolerance
      --json). Validates the schema, cross-checks the counters
      (solved + unsolved == trials, success_rate consistent), and enforces
      jam-axis monotonicity: within each group of points identical except
      for jam_rate, success_rate must be non-increasing as jam_rate rises
      (tolerance --monotone-tolerance, default 0.05, for sampling noise).
      --baseline is not meaningful for this schema (usage error).

  crmc.bench_adversary.v1   adaptive-adversary degradation grid
      (bench_adversary --json). Validates the schema (strategy/obs names,
      budget accounting: spent jams bounded by budget * trials, effective
      jams bounded by spent), cross-checks the failure breakdown
      (timed_out + aborted + silent_failures == unsolved), and enforces
      budget-axis monotonicity: within each (protocol, strategy, obs, cap)
      group, success_rate must be non-increasing as budget_fraction rises
      (same --monotone-tolerance). --baseline is a usage error here too.

  crmc.bench_robust.v3   optimal-budget bisection curves (bench_robust
      --json, arms-race round 3): one
      curve per cell of {two_active, general} x {primary_camper,
      lookahead, learning, probing} x {static, adaptive, hardened}, each
      carrying the budgets harness::BisectMinBreakBudget evaluated plus
      min_break_budget / max_pass_budget (-1 = censored: the whole probed
      range held the floor). Validates the per-point books (rate ==
      confirmed/trials, pass == rate >= pass_floor, epoch accounting, jam
      spend bounded by budget * trials, obfuscation rounds pinned to
      hardened curves and probe detection absent on static ones, the
      bounded retry allowance on un-hardened curves —
      the hardened jam credit legitimately exceeds it, so hardened curves
      are exempt), the curve structure (strictly ascending budgets
      spanning [budget_lo, budget_hi], the bisection bracket invariant —
      every passing budget below every failing one — and the min/max
      recomputes), and grid completeness; then gates the round-3 claims:
      at least one static curve actually breaks, hardening never lowers
      the frontier per (protocol, strategy), every hardened point holds
      pass_floor (all hardened curves censored), and >= 3 probing x
      adaptive points sit decisively below witness_floor. --baseline is a
      usage error.

  crmc.bench_traffic.v1   streaming-traffic λ-sweep (bench_traffic --json).
      Validates the schema and the per-point books (packet conservation
      delivered + backlog_remaining == arrivals, episode accounting
      singleton + batch + coroutine == episodes and delivered +
      failed_episodes == episodes, coroutine episode count pinned at zero,
      throughput == delivered/rounds, delivery_ratio == delivered/arrivals,
      latency percentile ordering, Jain index in [0, 1]); then per
      (protocol, jam_rate) group: λ strictly increasing, throughput
      non-decreasing up to its peak (--monotone-tolerance) and holding
      >= 70% of peak past it, and the stability knee — the largest λ whose
      delivery ratio clears config.knee_delivery_floor, with at least one
      saturated point above it — recomputed and matched against the
      committed "knees" entries. The committed pristine_fairness_floor is
      recomputed over the jam-free points with delivered >=
      config.fairness_min_delivered and must clear --fairness-floor
      (default 0.9). The million_trace block must witness the fast path:
      >= 10^6 arrivals, fully drained, zero coroutine episodes.
      --baseline is a usage error (outcomes are deterministic).

Self-test: check_bench_json.py --self-test runs the validators against
in-memory good/bad documents; wired into ctest so the checker itself is
under test.

Exit codes: 0 ok, 1 validation/regression failure, 2 usage error.
"""

import argparse
import json
import math
import sys

ENGINE_SCHEMA = "crmc.bench_engine.v4"
# The bench writes seconds with fewer significant digits than the derived
# rates, so the internal-consistency cross-checks use this relative slack.
SWEEP_CONSISTENCY_RTOL = 1e-4
# --min-trial-speedup only gates small-active points: lanes-across-trials
# targets the regime where per-trial vectors are too short to fill SIMD
# lanes; at large num_active the per-trial batch path is already wide.
TRIAL_SPEEDUP_MAX_ACTIVE = 16
FAULTS_SCHEMA = "crmc.bench_faults.v1"
ADVERSARY_SCHEMA = "crmc.bench_adversary.v1"
ROBUST_SCHEMA = "crmc.bench_robust.v3"
ROBUST_V3_PROTOCOLS = ("two_active", "general")
ROBUST_V3_STRATEGIES = ("primary_camper", "lookahead", "learning", "probing")
ROBUST_V3_POLICIES = ("static", "adaptive", "hardened")
# The round-3 witness requirement: at least this many probing x adaptive
# points must sit decisively below the artifact's witness_floor.
ROBUST_V3_MIN_WITNESS = 3
TRAFFIC_SCHEMA = "crmc.bench_traffic.v1"
# Derived traffic rates (throughput, delivery_ratio) are exact quotients of
# committed integer counters; the slack only absorbs double round-trips.
TRAFFIC_RATE_RTOL = 1e-9
# Past the throughput peak a saturated queue may wobble (episode seeds
# differ per λ), but a real instability collapse falls much further than
# 30% — the post-peak floor separates wobble from collapse.
TRAFFIC_POST_PEAK_FLOOR = 0.7
ADVERSARY_STRATEGIES = ("oblivious_rate", "primary_camper", "greedy_reactive",
                        "random_budgeted", "scripted", "phase_tracking",
                        "lookahead", "learning", "probing")
ADVERSARY_OBS_MODES = ("full", "activity")
METADATA_KEYS = ("cpu", "compiler", "dispatch", "rng")
ENGINE_METRICS = ("seconds", "trials_per_sec", "rounds_per_sec",
                  "node_rounds_per_sec")
POINT_KEYS = ("protocol", "population", "num_active", "channels")
FAULT_RATE_KEYS = ("jam_rate", "erasure_rate", "flaky_cd_rate", "crash_rate")


class ValidationFailure(Exception):
    """Raised on any artifact problem; main() turns it into exit code 1."""


def fail(msg):
    raise ValidationFailure(msg)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")


def _check_points_container(doc, path):
    if not isinstance(doc, dict):
        fail(f"{path}: top level must be an object")
    points = doc.get("points")
    if not isinstance(points, list) or not points:
        fail(f"{path}: 'points' must be a non-empty array")
    return points


def _check_positive_int(p, key, where):
    v = p.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        fail(f"{where}: '{key}' must be a positive integer")
    return v


def _check_count(p, key, where):
    v = p.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        fail(f"{where}: '{key}' must be a non-negative integer")
    return v


def _check_number(container, key, where, lo=None, hi=None):
    v = container.get(key)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        fail(f"{where}: '{key}' must be a number")
    if lo is not None and v < lo:
        fail(f"{where}: '{key}' is {v}, below {lo}")
    if hi is not None and v > hi:
        fail(f"{where}: '{key}' is {v}, above {hi}")
    return v


def _validate_metadata(doc, path):
    meta = doc.get("metadata")
    if not isinstance(meta, dict):
        fail(f"{path}: 'metadata' must be an object")
    for key in METADATA_KEYS:
        v = meta.get(key)
        if not isinstance(v, str) or not v:
            fail(f"{path}: metadata.{key} must be a non-empty string")
    _check_positive_int(meta, "lane_width", f"{path}: metadata")
    return meta


def _validate_kernels(doc, path):
    kernels = doc.get("kernels")
    if not isinstance(kernels, list) or not kernels:
        fail(f"{path}: 'kernels' must be a non-empty array")
    for i, k in enumerate(kernels):
        where = f"{path}: kernels[{i}]"
        if not isinstance(k, dict):
            fail(f"{where}: must be an object")
        for key in ("name", "backend"):
            if not isinstance(k.get(key), str) or not k[key]:
                fail(f"{where}: '{key}' must be a non-empty string")
        _check_positive_int(k, "lanes", where)
        _check_number(k, "items_per_sec", where, lo=0)
    names = [(k["name"], k["backend"]) for k in kernels]
    if len(set(names)) != len(names):
        fail(f"{path}: duplicate (kernel, backend) entries")
    return kernels


def _validate_trial_block(p, where):
    """Checks a per-point 'trial' object (absent on points whose
    protocol has no trial-parallel twin)."""
    trial = p.get("trial")
    if trial is None:
        return None
    if not isinstance(trial, dict):
        fail(f"{where}: 'trial' must be an object")
    _check_positive_int(trial, "lane_width", f"{where}: trial")
    if trial.get("rng") != "philox":
        fail(f"{where}: trial.rng must be 'philox' (the executor's required "
             f"generator), got {trial.get('rng')!r}")
    engines = trial.get("engines")
    if not isinstance(engines, dict):
        fail(f"{where}: trial.engines must be an object")
    for name in ("batch", "trial_batch"):
        eng = engines.get(name)
        if not isinstance(eng, dict):
            fail(f"{where}: trial.engines.{name} missing")
        for metric in ENGINE_METRICS:
            _check_number(eng, metric, f"{where}: trial.engines.{name}", lo=0)
    _check_number(trial, "speedup_trials_per_sec", f"{where}: trial", lo=0)
    return trial


def _validate_sweep_throughput(doc, path):
    """Checks the top-level 'sweep_throughput' object: spawn-per-point
    vs persistent-executor timings for the same whole-grid dispatch, with
    both points_per_sec rates and the speedup cross-checked as arithmetic
    over the committed numbers (no hand-edited summary values)."""
    sweep = doc.get("sweep_throughput")
    if not isinstance(sweep, dict):
        fail(f"{path}: 'sweep_throughput' must be an object")
    where = f"{path}: sweep_throughput"
    if not isinstance(sweep.get("protocol"), str) or not sweep["protocol"]:
        fail(f"{where}: 'protocol' must be a non-empty string")
    for key in ("threads", "points", "trials_per_point", "lane_width"):
        _check_positive_int(sweep, key, where)
    for side_name in ("spawn", "executor"):
        side = sweep.get(side_name)
        if not isinstance(side, dict):
            fail(f"{where}: '{side_name}' must be an object")
        secs = _check_number(side, "seconds", f"{where}: {side_name}", lo=0)
        rate = _check_number(side, "points_per_sec", f"{where}: {side_name}",
                             lo=0)
        if secs > 0:
            expected = sweep["points"] / secs
            if abs(rate - expected) > SWEEP_CONSISTENCY_RTOL * expected:
                fail(f"{where}: {side_name}.points_per_sec {rate} != "
                     f"points/seconds {expected}")
    speedup = _check_number(sweep, "speedup_points_per_sec", where, lo=0)
    spawn_rate = sweep["spawn"]["points_per_sec"]
    exec_rate = sweep["executor"]["points_per_sec"]
    if spawn_rate > 0:
        expected = exec_rate / spawn_rate
        if abs(speedup - expected) > SWEEP_CONSISTENCY_RTOL * max(1.0,
                                                                  expected):
            fail(f"{where}: speedup_points_per_sec {speedup} != "
                 f"executor/spawn rate ratio {expected}")
    return sweep


def validate_engine(doc, path):
    """Checks the crmc.bench_engine.v4 schema; returns the points list."""
    _validate_metadata(doc, path)
    _validate_kernels(doc, path)
    _validate_sweep_throughput(doc, path)
    points = _check_points_container(doc, path)
    for i, p in enumerate(points):
        where = f"{path}: points[{i}]"
        if not isinstance(p, dict):
            fail(f"{where}: must be an object")
        if not isinstance(p.get("protocol"), str) or not p["protocol"]:
            fail(f"{where}: 'protocol' must be a non-empty string")
        for key in ("population", "num_active", "channels", "trials"):
            _check_positive_int(p, key, where)
        engines = p.get("engines")
        if not isinstance(engines, dict):
            fail(f"{where}: 'engines' must be an object")
        for name in ("coroutine", "batch"):
            eng = engines.get(name)
            if not isinstance(eng, dict):
                fail(f"{where}: engines.{name} missing")
            for metric in ENGINE_METRICS:
                _check_number(eng, metric, f"{where}: engines.{name}", lo=0)
        _check_number(p, "speedup_trials_per_sec", where, lo=0)
        _validate_trial_block(p, where)
    keys = [tuple(p[k] for k in POINT_KEYS) for p in points]
    if len(set(keys)) != len(keys):
        fail(f"{path}: duplicate grid points")
    return points


def validate_faults(doc, path):
    """Checks the crmc.bench_faults.v1 schema; returns the points list."""
    points = _check_points_container(doc, path)
    for i, p in enumerate(points):
        where = f"{path}: points[{i}]"
        if not isinstance(p, dict):
            fail(f"{where}: must be an object")
        if not isinstance(p.get("protocol"), str) or not p["protocol"]:
            fail(f"{where}: 'protocol' must be a non-empty string")
        for key in ("population", "num_active", "channels", "trials",
                    "max_rounds"):
            _check_positive_int(p, key, where)
        faults = p.get("faults")
        if not isinstance(faults, dict):
            fail(f"{where}: 'faults' must be an object")
        for key in FAULT_RATE_KEYS:
            _check_number(faults, key, f"{where}: faults", lo=0.0, hi=1.0)
        solved = _check_count(p, "solved", where)
        unsolved = _check_count(p, "unsolved", where)
        timed_out = _check_count(p, "timed_out", where)
        aborted = _check_count(p, "aborted", where)
        wedged = _check_count(p, "wedged", where)
        _check_count(p, "faults_injected", where)
        _check_count(p, "crashed_nodes", where)
        trials = p["trials"]
        if solved + unsolved != trials:
            fail(f"{where}: solved {solved} + unsolved {unsolved} "
                 f"!= trials {trials}")
        if timed_out + aborted > unsolved:
            fail(f"{where}: timed_out {timed_out} + aborted {aborted} "
                 f"exceeds unsolved {unsolved}")
        if wedged > timed_out:
            fail(f"{where}: wedged {wedged} > timed_out {timed_out}")
        rate = _check_number(p, "success_rate", where, lo=0.0, hi=1.0)
        if abs(rate - solved / trials) > 1e-9:
            fail(f"{where}: success_rate {rate} != solved/trials "
                 f"{solved / trials}")
        _check_number(p, "mean_solved_rounds", where, lo=0)
        _check_number(p, "round_inflation", where, lo=0)
    return points


def validate_adversary(doc, path):
    """Checks the crmc.bench_adversary.v1 schema; returns the points list."""
    points = _check_points_container(doc, path)
    for i, p in enumerate(points):
        where = f"{path}: points[{i}]"
        if not isinstance(p, dict):
            fail(f"{where}: must be an object")
        if not isinstance(p.get("protocol"), str) or not p["protocol"]:
            fail(f"{where}: 'protocol' must be a non-empty string")
        for key in ("population", "num_active", "channels", "trials",
                    "max_rounds"):
            _check_positive_int(p, key, where)
        adv = p.get("adversary")
        if not isinstance(adv, dict):
            fail(f"{where}: 'adversary' must be an object")
        strategy = adv.get("strategy")
        if strategy not in ADVERSARY_STRATEGIES:
            fail(f"{where}: adversary.strategy {strategy!r} not one of "
                 f"{ADVERSARY_STRATEGIES}")
        if adv.get("obs") not in ADVERSARY_OBS_MODES:
            fail(f"{where}: adversary.obs {adv.get('obs')!r} not one of "
                 f"{ADVERSARY_OBS_MODES}")
        budget = _check_count(adv, "budget", f"{where}: adversary")
        _check_number(adv, "budget_fraction", f"{where}: adversary",
                      lo=0.0, hi=1.0)
        _check_positive_int(adv, "per_round_cap", f"{where}: adversary")
        _check_number(adv, "rate", f"{where}: adversary", lo=0.0, hi=1.0)
        solved = _check_count(p, "solved", where)
        unsolved = _check_count(p, "unsolved", where)
        timed_out = _check_count(p, "timed_out", where)
        aborted = _check_count(p, "aborted", where)
        wedged = _check_count(p, "wedged", where)
        silent = _check_count(p, "silent_failures", where)
        spent = _check_count(p, "adv_jams_spent", where)
        effective = _check_count(p, "adv_jams_effective", where)
        trials = p["trials"]
        if solved + unsolved != trials:
            fail(f"{where}: solved {solved} + unsolved {unsolved} "
                 f"!= trials {trials}")
        if timed_out + aborted + silent != unsolved:
            fail(f"{where}: timed_out {timed_out} + aborted {aborted} + "
                 f"silent_failures {silent} != unsolved {unsolved}")
        if wedged > timed_out:
            fail(f"{where}: wedged {wedged} > timed_out {timed_out}")
        if effective > spent:
            fail(f"{where}: adv_jams_effective {effective} > "
                 f"adv_jams_spent {spent}")
        if strategy != "oblivious_rate" and spent > budget * trials:
            fail(f"{where}: adv_jams_spent {spent} exceeds the aggregate "
                 f"budget {budget} * {trials} trials")
        rate = _check_number(p, "success_rate", where, lo=0.0, hi=1.0)
        if abs(rate - solved / trials) > 1e-9:
            fail(f"{where}: success_rate {rate} != solved/trials "
                 f"{solved / trials}")
        _check_number(p, "mean_solved_rounds", where, lo=0)
        _check_number(p, "round_inflation", where, lo=0)
    return points


def _check_v3_point(p, curve, pass_floor, where):
    """One evaluated (budget, rate) point of a v3 bisection curve.
    Returns the point's budget."""
    trials = curve["trials"]
    budget = _check_count(p, "budget", where)
    solved = _check_count(p, "solved", where)
    unsolved = _check_count(p, "unsolved", where)
    timed_out = _check_count(p, "timed_out", where)
    aborted = _check_count(p, "aborted", where)
    wedged = _check_count(p, "wedged", where)
    silent = _check_count(p, "silent_failures", where)
    confirmed = _check_count(p, "confirmed", where)
    if solved + unsolved != trials:
        fail(f"{where}: solved {solved} + unsolved {unsolved} "
             f"!= trials {trials}")
    if timed_out + aborted + silent != unsolved:
        fail(f"{where}: timed_out {timed_out} + aborted {aborted} + "
             f"silent_failures {silent} != unsolved {unsolved}")
    if wedged > timed_out:
        fail(f"{where}: wedged {wedged} > timed_out {timed_out}")
    if confirmed > solved:
        fail(f"{where}: confirmed {confirmed} > solved {solved}")
    rate = _check_number(p, "rate", where, lo=0.0, hi=1.0)
    if abs(rate - confirmed / trials) > 1e-9:
        fail(f"{where}: rate {rate} != confirmed/trials "
             f"{confirmed / trials}")
    if not isinstance(p.get("pass"), bool):
        fail(f"{where}: 'pass' must be a boolean")
    if p["pass"] != (rate >= pass_floor):
        fail(f"{where}: pass flag {p['pass']} contradicts rate {rate} vs "
             f"pass_floor {pass_floor}")
    epochs = _check_count(p, "epochs_used", where)
    retries = _check_count(p, "retries", where)
    if epochs != retries + trials:
        fail(f"{where}: epochs_used {epochs} != retries {retries} + "
             f"trials {trials} (each trial runs retries + 1 epochs)")
    # Bounded retry allowance for the un-hardened policies. The hardened
    # policy is exempt by design: its jam credit (robust/robust.h item f)
    # refunds epochs the adversary spent into, so free retries legitimately
    # push the aggregate past (max_epochs - 1) * trials.
    if curve["policy"] != "hardened" and \
            retries > (curve["robust"]["max_epochs"] - 1) * trials:
        fail(f"{where}: retries {retries} exceeds (max_epochs - 1) * trials "
             f"on a {curve['policy']} curve (only the hardened jam credit "
             f"may exceed the bounded allowance)")
    _check_positive_int(p, "rounds_total", where)
    spent = _check_count(p, "adv_jams_spent", where)
    effective = _check_count(p, "adv_jams_effective", where)
    if effective > spent:
        fail(f"{where}: adv_jams_effective {effective} > "
             f"adv_jams_spent {spent}")
    if spent > budget * trials:
        fail(f"{where}: adv_jams_spent {spent} exceeds the aggregate "
             f"budget {budget} * {trials} trials")
    probe = _check_count(p, "probe_rounds_detected", where)
    obfuscation = _check_count(p, "obfuscation_rounds", where)
    # Counter provenance: only the hardened policy inserts dummy confirm
    # rounds, while honeypot probe detection is adaptive-and-up (a jam
    # landing on an adaptive honeypot counts too) — but never static.
    if curve["policy"] != "hardened" and obfuscation:
        fail(f"{where}: obfuscation_rounds {obfuscation} nonzero on a "
             f"{curve['policy']} curve")
    if curve["policy"] == "static" and probe:
        fail(f"{where}: probe_rounds_detected {probe} nonzero on a "
             f"static curve")
    if budget == 0:
        if spent:
            fail(f"{where}: adv_jams_spent {spent} with budget 0")
        if not p["pass"]:
            fail(f"{where}: the pristine (budget 0) endpoint fell below "
                 f"the floor — the curve gates nothing")
    return budget


def validate_robust_v3(doc, path):
    """Checks the crmc.bench_robust.v3 schema; returns (curves, pass_floor,
    witness_floor)."""
    pass_floor = _check_number(doc, "pass_floor", path, lo=0.0, hi=1.0)
    if pass_floor <= 0.0:
        fail(f"{path}: 'pass_floor' must be positive")
    witness_floor = _check_number(doc, "witness_floor", path, lo=0.0, hi=1.0)
    if witness_floor >= pass_floor:
        fail(f"{path}: witness_floor {witness_floor} must sit below "
             f"pass_floor {pass_floor} (a witness is a decisive break, "
             f"not floor noise)")
    curves = doc.get("curves")
    if not isinstance(curves, list) or not curves:
        fail(f"{path}: 'curves' must be a non-empty array")
    seen = set()
    for i, c in enumerate(curves):
        where = f"{path}: curves[{i}]"
        if not isinstance(c, dict):
            fail(f"{where}: must be an object")
        if c.get("protocol") not in ROBUST_V3_PROTOCOLS:
            fail(f"{where}: protocol {c.get('protocol')!r} not one of "
                 f"{ROBUST_V3_PROTOCOLS}")
        if c.get("strategy") not in ROBUST_V3_STRATEGIES:
            fail(f"{where}: strategy {c.get('strategy')!r} not one of "
                 f"{ROBUST_V3_STRATEGIES}")
        if c.get("policy") not in ROBUST_V3_POLICIES:
            fail(f"{where}: policy {c.get('policy')!r} not one of "
                 f"{ROBUST_V3_POLICIES}")
        for key in ("population", "num_active", "channels", "trials",
                    "wrapped_max_rounds", "per_round_cap"):
            _check_positive_int(c, key, where)
        rob = c.get("robust")
        if not isinstance(rob, dict):
            fail(f"{where}: 'robust' must be an object")
        _check_positive_int(rob, "max_epochs", f"{where}: robust")
        _check_count(rob, "confirm_attempts", f"{where}: robust")
        base = _check_count(rob, "backoff_base", f"{where}: robust")
        cap = _check_count(rob, "backoff_cap", f"{where}: robust")
        if cap < base:
            fail(f"{where}: robust.backoff_cap {cap} < backoff_base {base}")
        lo = _check_count(c, "budget_lo", where)
        hi = _check_count(c, "budget_hi", where)
        if hi <= lo:
            fail(f"{where}: budget_hi {hi} <= budget_lo {lo}")
        points = c.get("points")
        if not isinstance(points, list) or not points:
            fail(f"{where}: 'points' must be a non-empty array")
        if c.get("evals") != len(points):
            fail(f"{where}: evals {c.get('evals')!r} != number of "
                 f"committed points {len(points)}")
        budgets = []
        for j, p in enumerate(points):
            pw = f"{where}: points[{j}]"
            if not isinstance(p, dict):
                fail(f"{pw}: must be an object")
            budgets.append(_check_v3_point(p, c, pass_floor, pw))
        if any(a >= b for a, b in zip(budgets, budgets[1:])):
            fail(f"{where}: point budgets must be strictly ascending")
        if budgets[0] != lo or budgets[-1] != hi:
            fail(f"{where}: points must span [budget_lo, budget_hi] = "
                 f"[{lo}, {hi}] endpoint to endpoint, got "
                 f"[{budgets[0]}, {budgets[-1]}]")
        # The bisection bracket invariant (harness/bisect.h): the driver
        # only advances the low cursor through passing budgets and the high
        # cursor through failing ones, so every evaluated pass must sit
        # strictly below every evaluated fail.
        passed = [p["budget"] for p in points if p["pass"]]
        failed = [p["budget"] for p in points if not p["pass"]]
        if passed and failed and max(passed) >= min(failed):
            fail(f"{where}: bracket invariant broken — passing budget "
                 f"{max(passed)} >= failing budget {min(failed)}")
        for key in ("min_break_budget", "max_pass_budget"):
            v = c.get(key)
            if not isinstance(v, int) or isinstance(v, bool) or v < -1:
                fail(f"{where}: '{key}' must be an integer >= -1")
        expect_break = min(failed) if failed else -1
        if c["min_break_budget"] != expect_break:
            fail(f"{where}: min_break_budget {c['min_break_budget']} != "
                 f"recomputed {expect_break}")
        expect_pass = max(passed) if passed else -1
        if c["max_pass_budget"] != expect_pass:
            fail(f"{where}: max_pass_budget {c['max_pass_budget']} != "
                 f"recomputed {expect_pass}")
        key = (c["protocol"], c["strategy"], c["policy"])
        if key in seen:
            fail(f"{where}: duplicate curve {key}")
        seen.add(key)
    expected = {(pr, s, po) for pr in ROBUST_V3_PROTOCOLS
                for s in ROBUST_V3_STRATEGIES for po in ROBUST_V3_POLICIES}
    missing = expected - seen
    if missing:
        fail(f"{path}: grid incomplete — missing curves "
             f"{sorted(missing)[:4]}{'...' if len(missing) > 4 else ''}")
    return curves, pass_floor, witness_floor


def check_robust_v3_claims(curves, pass_floor, witness_floor):
    """The round-3 arms-race gates over a validated v3 curve set. Returns
    the probing x adaptive witness count."""
    # 1. Arms-race continuity: some strategy must actually break the
    #    static wrapper, else every frontier is censored and the ordering
    #    below gates nothing.
    if not any(c["policy"] == "static" and c["min_break_budget"] != -1
               for c in curves):
        fail("no static curve breaks anywhere on the probed range; the "
             "artifact does not witness the static wrapper being beaten")
    # 2. Hardening never lowers the frontier: per (protocol, strategy) the
    #    hardened min-break budget must be at least static's and
    #    adaptive's, censored curves (-1) counting as +infinity.
    frontier = {(c["protocol"], c["strategy"], c["policy"]):
                c["min_break_budget"] for c in curves}

    def depth(mb):
        return math.inf if mb == -1 else mb

    for proto in ROBUST_V3_PROTOCOLS:
        for strat in ROBUST_V3_STRATEGIES:
            hardened = depth(frontier[(proto, strat, "hardened")])
            for policy in ("static", "adaptive"):
                if depth(frontier[(proto, strat, policy)]) > hardened:
                    fail(f"{proto} {strat}: the {policy} policy survives to "
                         f"{frontier[(proto, strat, policy)]} but hardened "
                         f"breaks at {frontier[(proto, strat, 'hardened')]} "
                         f"— hardening lowered the frontier")
    # 3. The hardened floor: every evaluated hardened point holds
    #    pass_floor, i.e. all hardened curves are censored.
    for c in curves:
        if c["policy"] != "hardened":
            continue
        for p in c["points"]:
            if p["rate"] < pass_floor:
                fail(f"{c['protocol']} {c['strategy']} budget "
                     f"{p['budget']}: hardened rate {p['rate']:.3f} below "
                     f"the floor {pass_floor}")
    # 4. The probing witness: enough probing x adaptive points must sit
    #    decisively below witness_floor — the round-3 headline that the
    #    probing adversary beats the round-2 adaptive policy outright.
    witnesses = sum(1 for c in curves
                    if c["strategy"] == "probing" and c["policy"] == "adaptive"
                    for p in c["points"] if p["rate"] < witness_floor)
    if witnesses < ROBUST_V3_MIN_WITNESS:
        fail(f"only {witnesses} probing x adaptive points sit below the "
             f"witness floor {witness_floor} (need >= "
             f"{ROBUST_V3_MIN_WITNESS}); the artifact does not witness the "
             f"probing adversary beating the adaptive policy")
    return witnesses


def _check_rate_quotient(p, key, num, den, where):
    """Cross-checks a committed rate against its integer-counter quotient."""
    rate = _check_number(p, key, where, lo=0.0)
    expect = num / den
    if abs(rate - expect) > TRAFFIC_RATE_RTOL * max(1.0, expect):
        fail(f"{where}: {key} {rate} != {num}/{den} = {expect}")
    return rate


def validate_traffic(doc, path):
    """Checks the crmc.bench_traffic.v1 schema; returns (config, points)."""
    config = doc.get("config")
    if not isinstance(config, dict):
        fail(f"{path}: 'config' must be an object")
    for key in ("stations", "channels", "horizon_rounds",
                "episode_max_rounds"):
        _check_positive_int(config, key, f"{path}: config")
    floor = _check_number(config, "knee_delivery_floor", f"{path}: config",
                          lo=0.0, hi=1.0)
    if floor <= 0.0:
        fail(f"{path}: config: 'knee_delivery_floor' must be positive "
             "(a zero floor makes every point a knee)")
    _check_count(config, "fairness_min_delivered", f"{path}: config")
    points = _check_points_container(doc, path)
    for i, p in enumerate(points):
        where = f"{path}: points[{i}]"
        if not isinstance(p, dict):
            fail(f"{where}: must be an object")
        for key in ("protocol", "arrival"):
            if not isinstance(p.get(key), str) or not p[key]:
                fail(f"{where}: '{key}' must be a non-empty string")
        lam = _check_number(p, "lambda", where, lo=0.0)
        if lam <= 0.0:
            fail(f"{where}: 'lambda' must be positive on a sweep point")
        _check_number(p, "jam_rate", where, lo=0.0, hi=1.0)
        for key in ("stations", "channels", "horizon_rounds", "rounds"):
            _check_positive_int(p, key, where)
        if p["rounds"] < p["horizon_rounds"]:
            fail(f"{where}: rounds {p['rounds']} < horizon_rounds "
                 f"{p['horizon_rounds']} (a trace serves its whole horizon)")
        arrivals = _check_count(p, "arrivals", where)
        delivered = _check_count(p, "delivered", where)
        backlog = _check_count(p, "backlog_remaining", where)
        _check_count(p, "backlog_peak", where)
        episodes = _check_count(p, "episodes", where)
        failed = _check_count(p, "failed_episodes", where)
        singleton = _check_count(p, "singleton_deliveries", where)
        batch = _check_count(p, "engine_episodes_batch", where)
        coroutine = _check_count(p, "engine_episodes_coroutine", where)
        if arrivals < 1:
            fail(f"{where}: a sweep point with zero arrivals gates nothing")
        if delivered + backlog != arrivals:
            fail(f"{where}: packet conservation broken — delivered "
                 f"{delivered} + backlog_remaining {backlog} != arrivals "
                 f"{arrivals}")
        if singleton + batch + coroutine != episodes:
            fail(f"{where}: singleton_deliveries {singleton} + "
                 f"engine_episodes_batch {batch} + "
                 f"engine_episodes_coroutine {coroutine} != episodes "
                 f"{episodes}")
        if delivered + failed != episodes:
            fail(f"{where}: delivered {delivered} + failed_episodes "
                 f"{failed} != episodes {episodes} (each episode delivers "
                 "exactly one packet or fails)")
        if coroutine != 0:
            fail(f"{where}: {coroutine} coroutine episodes — the traffic "
                 "bench runs step-program protocols, so every engine "
                 "episode must take the batch fast path")
        _check_rate_quotient(p, "throughput", delivered, p["rounds"], where)
        _check_rate_quotient(p, "delivery_ratio", delivered, arrivals, where)
        _check_number(p, "mean_latency", where, lo=0.0)
        p50 = _check_number(p, "latency_p50", where, lo=0.0)
        p95 = _check_number(p, "latency_p95", where, lo=0.0)
        p99 = _check_number(p, "latency_p99", where, lo=0.0)
        if not p50 <= p95 <= p99:
            fail(f"{where}: latency percentiles out of order — latency_p50 "
                 f"{p50}, latency_p95 {p95}, latency_p99 {p99}")
        _check_number(p, "jain_fairness", where, lo=0.0, hi=1.0)
    return config, points


def _traffic_groups(points):
    """Points bucketed by (protocol, jam_rate) in file order."""
    groups = {}
    for p in points:
        groups.setdefault((p["protocol"], p["jam_rate"]), []).append(p)
    return groups


def check_traffic_knees(points, knees, config, tolerance):
    """λ ordering + throughput shape + knee recomputation per group.

    Returns the number of (protocol, jam_rate) groups checked.
    """
    if not isinstance(knees, list) or not knees:
        fail("'knees' must be a non-empty array")
    committed = {}
    for i, k in enumerate(knees):
        if not isinstance(k, dict):
            fail(f"knees[{i}]: must be an object")
        if not isinstance(k.get("protocol"), str) or not k["protocol"]:
            fail(f"knees[{i}]: 'protocol' must be a non-empty string")
        _check_number(k, "jam_rate", f"knees[{i}]", lo=0.0, hi=1.0)
        _check_number(k, "knee_lambda", f"knees[{i}]", lo=0.0)
        key = (k["protocol"], k["jam_rate"])
        if key in committed:
            fail(f"knees[{i}]: duplicate entry for {key}")
        committed[key] = k["knee_lambda"]
    groups = _traffic_groups(points)
    for key in committed:
        if key not in groups:
            fail(f"knees entry {key} has no matching points group")
    floor = config["knee_delivery_floor"]
    for (protocol, jam), pts in groups.items():
        who = f"group ({protocol}, jam={jam})"
        lambdas = [p["lambda"] for p in pts]
        for a, b in zip(lambdas, lambdas[1:]):
            if b <= a:
                fail(f"{who}: lambda must be strictly increasing, got "
                     f"{a} then {b}")
        tput = [p["delivered"] / p["rounds"] for p in pts]
        peak = tput.index(max(tput))
        for i in range(len(tput) - 1):
            if i < peak and tput[i + 1] < tput[i] - tolerance:
                fail(f"{who}: throughput fell from {tput[i]:.4f} to "
                     f"{tput[i + 1]:.4f} before the peak (lambda "
                     f"{lambdas[i]} -> {lambdas[i + 1]}, tolerance "
                     f"{tolerance})")
            if i >= peak and tput[i + 1] < TRAFFIC_POST_PEAK_FLOOR * tput[peak]:
                fail(f"{who}: throughput collapsed to {tput[i + 1]:.4f} "
                     f"past the peak {tput[peak]:.4f} (floor "
                     f"{TRAFFIC_POST_PEAK_FLOOR} of peak)")
        knee = None
        saturated = False
        for p in pts:
            ratio = p["delivered"] / p["arrivals"]
            if ratio >= floor:
                knee = max(knee, p["lambda"]) if knee is not None \
                    else p["lambda"]
            else:
                saturated = True
        if knee is None or not saturated:
            fail(f"{who}: lambda grid does not straddle the stability knee "
                 f"(need a point clearing delivery floor {floor} AND a "
                 "saturated point below it)")
        if (protocol, jam) not in committed:
            fail(f"{who}: no knees entry for this group")
        want = committed[(protocol, jam)]
        if abs(knee - want) > 1e-12:
            fail(f"{who}: committed knee_lambda {want} != recomputed "
                 f"knee {knee}")
    return len(groups)


def check_traffic_fairness(points, config, committed_floor, required_floor):
    """Recomputes the pristine Jain floor and gates it.

    Returns the number of eligible (jam-free, statistically meaningful)
    points.
    """
    if (not isinstance(committed_floor, (int, float))
            or isinstance(committed_floor, bool)):
        fail("'pristine_fairness_floor' must be a number")
    min_delivered = config["fairness_min_delivered"]
    eligible = [p for p in points
                if p["jam_rate"] == 0 and p["delivered"] >= min_delivered]
    if not eligible:
        fail(f"no jam-free point delivered >= {min_delivered} packets; "
             "the fairness floor would gate nothing")
    recomputed = min(p["jain_fairness"] for p in eligible)
    if abs(committed_floor - recomputed) > 1e-9:
        fail(f"pristine_fairness_floor {committed_floor} does not match "
             f"the recomputed minimum {recomputed}")
    if committed_floor < required_floor:
        fail(f"pristine fairness floor {committed_floor:.4f} is below the "
             f"required --fairness-floor {required_floor}")
    return len(eligible)


def check_traffic_million(doc, path):
    """Gates the million-packet fast-path witness block."""
    m = doc.get("million_trace")
    where = f"{path}: million_trace"
    if not isinstance(m, dict):
        fail(f"{where}: must be an object")
    if not isinstance(m.get("protocol"), str) or not m["protocol"]:
        fail(f"{where}: 'protocol' must be a non-empty string")
    lam = _check_number(m, "lambda", where, lo=0.0)
    if lam <= 0.0:
        fail(f"{where}: 'lambda' must be positive")
    horizon = _check_positive_int(m, "horizon_rounds", where)
    seconds = _check_number(m, "seconds", where, lo=0.0)
    if seconds <= 0.0:
        fail(f"{where}: 'seconds' must be positive")
    arrivals = _check_count(m, "arrivals", where)
    delivered = _check_count(m, "delivered", where)
    backlog = _check_count(m, "backlog_remaining", where)
    episodes = _check_count(m, "episodes", where)
    singleton = _check_count(m, "singleton_deliveries", where)
    batch = _check_count(m, "engine_episodes_batch", where)
    coroutine = _check_count(m, "engine_episodes_coroutine", where)
    if arrivals < 1_000_000:
        fail(f"{where}: {arrivals} arrivals is short of the 10^6-packet "
             "witness")
    if delivered != arrivals or backlog != 0:
        fail(f"{where}: a drained trace must deliver every packet — "
             f"delivered {delivered}, backlog_remaining {backlog}, "
             f"arrivals {arrivals}")
    if singleton + batch + coroutine != episodes:
        fail(f"{where}: singleton_deliveries {singleton} + "
             f"engine_episodes_batch {batch} + engine_episodes_coroutine "
             f"{coroutine} != episodes {episodes}")
    if coroutine != 0:
        fail(f"{where}: {coroutine} coroutine episodes — the fast-path "
             "witness requires every engine episode on the batch path")
    if batch < 1:
        fail(f"{where}: zero batch episodes — the witness never exercised "
             "the engine fast path")
    tput = _check_number(m, "throughput", where, lo=0.0)
    cap = delivered / horizon
    if not 0.0 < tput <= cap * (1.0 + TRAFFIC_RATE_RTOL):
        fail(f"{where}: throughput {tput} outside (0, delivered/horizon "
             f"= {cap}] (rounds can only exceed the horizon)")
    return arrivals


def check_budget_monotonicity(points, tolerance):
    """success_rate must not rise with budget_fraction, all else equal.

    Groups points by (protocol grid key, max_rounds, strategy, obs, cap)
    and sorts each group on budget_fraction (which doubles as the jam rate
    for oblivious_rate points). More budget can only hurt the protocol, so
    an adjacent rise beyond the tolerance is a bench or subsystem bug.
    """
    groups = {}
    for p in points:
        a = p["adversary"]
        key = (tuple(p[k] for k in POINT_KEYS), p["max_rounds"],
               a["strategy"], a["obs"], a["per_round_cap"])
        groups.setdefault(key, []).append(p)
    checked = 0
    for key, group in groups.items():
        group.sort(key=lambda p: p["adversary"]["budget_fraction"])
        for prev, cur in zip(group, group[1:]):
            checked += 1
            if cur["success_rate"] > prev["success_rate"] + tolerance:
                fail(f"{cur['protocol']} {cur['adversary']['strategy']}: "
                     f"success_rate rose from {prev['success_rate']:.3f} "
                     f"(budget_fraction "
                     f"{prev['adversary']['budget_fraction']}) to "
                     f"{cur['success_rate']:.3f} (budget_fraction "
                     f"{cur['adversary']['budget_fraction']}), tolerance "
                     f"{tolerance}")
    return checked


def check_jam_monotonicity(points, tolerance):
    """success_rate must not rise with jam_rate, all else equal."""
    groups = {}
    for p in points:
        f = p["faults"]
        key = (tuple(p[k] for k in POINT_KEYS), p["max_rounds"],
               f["erasure_rate"], f["flaky_cd_rate"], f["crash_rate"])
        groups.setdefault(key, []).append(p)
    checked = 0
    for key, group in groups.items():
        group.sort(key=lambda p: p["faults"]["jam_rate"])
        for prev, cur in zip(group, group[1:]):
            checked += 1
            if cur["success_rate"] > prev["success_rate"] + tolerance:
                fail(f"{cur['protocol']} n={cur['population']}: success_rate "
                     f"rose from {prev['success_rate']:.3f} (jam "
                     f"{prev['faults']['jam_rate']}) to "
                     f"{cur['success_rate']:.3f} (jam "
                     f"{cur['faults']['jam_rate']}), tolerance {tolerance}")
    return checked


def check_trial_speedup(points, floor, max_active=TRIAL_SPEEDUP_MAX_ACTIVE):
    """Every small-active point carrying a trial block must show the
    trial-parallel executor at >= `floor` times the per-trial batch path.
    Fails if no point qualifies — a floor nothing is measured against
    would pass vacuously."""
    gated = 0
    for p in points:
        trial = p.get("trial")
        if trial is None or p["num_active"] > max_active:
            continue
        gated += 1
        sp = trial["speedup_trials_per_sec"]
        label = (f"{p['protocol']} n={p['population']} "
                 f"active={p['num_active']} C={p['channels']}")
        if sp < floor:
            fail(f"{label}: trial executor speedup {sp:.2f} < "
                 f"--min-trial-speedup {floor:.2f}")
        print(f"{label}: trial executor speedup {sp:.2f} >= {floor:.2f} ok")
    if gated == 0:
        fail(f"no grid point with num_active <= {max_active} carries a "
             f"'trial' block; --min-trial-speedup has nothing to gate")
    return gated


def parse_trial_floors(text):
    """Parses --trial-speedup-floors "proto=floor,proto2=floor" into a
    dict; raises ValueError on malformed input (main turns that into a
    usage error)."""
    floors = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ValueError(f"malformed floor entry {item!r} "
                             f"(expected proto=floor)")
        floors[name] = float(value)
    if not floors:
        raise ValueError("no floors given")
    return floors


def check_trial_speedup_floors(points, floors,
                               max_active=TRIAL_SPEEDUP_MAX_ACTIVE):
    """Per-protocol trial-executor floors over the small-active points.
    Every named protocol must have at least one gated point (a floor
    nothing is measured against would pass vacuously), and every gated
    point of that protocol must clear its floor."""
    gated_total = 0
    for proto in sorted(floors):
        floor = floors[proto]
        gated = 0
        for p in points:
            if p["protocol"] != proto or p["num_active"] > max_active:
                continue
            trial = p.get("trial")
            if trial is None:
                continue
            gated += 1
            sp = trial["speedup_trials_per_sec"]
            label = (f"{p['protocol']} n={p['population']} "
                     f"active={p['num_active']} C={p['channels']}")
            if sp < floor:
                fail(f"{label}: trial executor speedup {sp:.2f} < floor "
                     f"{floor:.2f} from --trial-speedup-floors")
            print(f"{label}: trial executor speedup {sp:.2f} >= "
                  f"{floor:.2f} ok")
        if gated == 0:
            fail(f"--trial-speedup-floors names {proto!r} but no point with "
                 f"num_active <= {max_active} and a 'trial' block has that "
                 f"protocol; the floor would pass vacuously")
        gated_total += gated
    return gated_total


def point_key(p):
    return tuple(p[k] for k in POINT_KEYS)


def check_engine_baseline(points, base_points, max_regression):
    base = {point_key(p): p for p in base_points}
    compared = 0
    for p in points:
        b = base.get(point_key(p))
        if b is None:
            continue
        compared += 1
        new_rate = p["engines"]["batch"]["trials_per_sec"]
        old_rate = b["engines"]["batch"]["trials_per_sec"]
        if old_rate <= 0:
            continue
        floor = old_rate * (1.0 - max_regression)
        label = (f"{p['protocol']} n={p['population']} "
                 f"active={p['num_active']} C={p['channels']}")
        if new_rate < floor:
            fail(f"{label}: batch trials/sec regressed "
                 f"{new_rate:.1f} < {floor:.1f} "
                 f"(baseline {old_rate:.1f}, allowed drop "
                 f"{max_regression:.0%})")
        print(f"{label}: {new_rate:.1f} vs baseline {old_rate:.1f} ok")
    if compared == 0:
        fail("no grid points in common with the baseline")
    return compared


def run_checks(args):
    doc = load(args.artifact)
    if not isinstance(doc, dict):
        fail(f"{args.artifact}: top level must be an object")
    schema = doc.get("schema")
    if schema == ENGINE_SCHEMA:
        points = validate_engine(doc, args.artifact)
        print(f"{args.artifact}: schema ok, {len(points)} grid points")
        meta = doc["metadata"]
        print(f"metadata: cpu={meta['cpu']!r} dispatch={meta['dispatch']} "
              f"rng={meta['rng']}; {len(doc['kernels'])} kernel rates")
        if args.min_trial_speedup is not None:
            gated = check_trial_speedup(points, args.min_trial_speedup)
            print(f"trial executor floor {args.min_trial_speedup:.2f} holds "
                  f"on {gated} small-active points")
        if args.trial_speedup_floors is not None:
            gated = check_trial_speedup_floors(points,
                                               args.trial_speedup_floors)
            print(f"per-protocol trial floors hold on {gated} small-active "
                  f"points across {len(args.trial_speedup_floors)} protocols")
        if args.min_sweep_speedup is not None:
            sp = doc["sweep_throughput"]["speedup_points_per_sec"]
            if sp < args.min_sweep_speedup:
                fail(f"sweep_throughput: executor speedup {sp:.2f} < "
                     f"--min-sweep-speedup {args.min_sweep_speedup:.2f}")
            print(f"sweep executor speedup {sp:.2f} >= "
                  f"{args.min_sweep_speedup:.2f} ok")
        if args.min_speedup is not None:
            for p in points:
                sp = p["speedup_trials_per_sec"]
                if sp < args.min_speedup:
                    fail(f"{p['protocol']} n={p['population']} "
                         f"C={p['channels']}: speedup {sp:.2f} < "
                         f"--min-speedup {args.min_speedup:.2f}")
            print(f"all points have speedup >= {args.min_speedup:.2f}")
        if args.baseline:
            base_doc = load(args.baseline)
            if not isinstance(base_doc, dict):
                fail(f"{args.baseline}: top level must be an object")
            base_schema = base_doc.get("schema")
            if base_schema != ENGINE_SCHEMA:
                fail(f"{args.baseline}: baseline schema is {base_schema!r}, "
                     f"expected {ENGINE_SCHEMA!r}")
            base_points = validate_engine(base_doc, args.baseline)
            compared = check_engine_baseline(points, base_points,
                                             args.max_regression)
            print(f"no regression > {args.max_regression:.0%} across "
                  f"{compared} points")
    elif schema == FAULTS_SCHEMA:
        if args.baseline:
            print(f"--baseline is not supported for {FAULTS_SCHEMA} "
                  "(outcomes are deterministic; no timing to gate)",
                  file=sys.stderr)
            sys.exit(2)
        points = validate_faults(doc, args.artifact)
        print(f"{args.artifact}: schema ok, {len(points)} fault points")
        checked = check_jam_monotonicity(points, args.monotone_tolerance)
        print(f"jam-axis monotonicity ok across {checked} adjacent pairs")
    elif schema == ADVERSARY_SCHEMA:
        if args.baseline:
            print(f"--baseline is not supported for {ADVERSARY_SCHEMA} "
                  "(outcomes are deterministic; no timing to gate)",
                  file=sys.stderr)
            sys.exit(2)
        points = validate_adversary(doc, args.artifact)
        print(f"{args.artifact}: schema ok, {len(points)} adversary points")
        checked = check_budget_monotonicity(points, args.monotone_tolerance)
        print(f"budget-axis monotonicity ok across {checked} adjacent pairs")
    elif schema == ROBUST_SCHEMA:
        if args.baseline:
            print(f"--baseline is not supported for {ROBUST_SCHEMA} "
                  "(outcomes are deterministic; no timing to gate)",
                  file=sys.stderr)
            sys.exit(2)
        curves, pass_floor, witness_floor = validate_robust_v3(doc,
                                                               args.artifact)
        if pass_floor < args.delivery_floor:
            fail(f"{args.artifact}: pass_floor {pass_floor} is below "
                 f"--delivery-floor {args.delivery_floor}")
        evals = sum(len(c["points"]) for c in curves)
        print(f"{args.artifact}: schema ok, {len(curves)} bisection curves, "
              f"{evals} evaluated points (brackets + recomputes exact on "
              f"all)")
        witnesses = check_robust_v3_claims(curves, pass_floor, witness_floor)
        print(f"hardened holds >= {pass_floor} on every evaluated point; "
              f"frontier ordering ok; {witnesses} probing x adaptive "
              f"witness points below {witness_floor}")
    elif schema == TRAFFIC_SCHEMA:
        if args.baseline:
            print(f"--baseline is not supported for {TRAFFIC_SCHEMA} "
                  "(outcomes are deterministic; no timing to gate)",
                  file=sys.stderr)
            sys.exit(2)
        config, points = validate_traffic(doc, args.artifact)
        print(f"{args.artifact}: schema ok, {len(points)} traffic points "
              "(packet conservation + episode books exact on all)")
        groups = check_traffic_knees(points, doc.get("knees"), config,
                                     args.monotone_tolerance)
        print(f"lambda ordering, throughput shape, and knee location ok "
              f"across {groups} (protocol, jam) groups")
        eligible = check_traffic_fairness(points, config,
                                          doc.get("pristine_fairness_floor"),
                                          args.fairness_floor)
        print(f"pristine fairness floor >= {args.fairness_floor} holds "
              f"over {eligible} eligible points")
        witness = check_traffic_million(doc, args.artifact)
        print(f"million-trace witness ok: {witness} packets, zero "
              "coroutine episodes")
    else:
        fail(f"{args.artifact}: schema is {schema!r}, expected one of "
             f"{ENGINE_SCHEMA!r}, {FAULTS_SCHEMA!r}, {ADVERSARY_SCHEMA!r}, "
             f"{ROBUST_SCHEMA!r} or {TRAFFIC_SCHEMA!r}")
    print("check_bench_json: OK")


# --------------------------------------------------------------------------
# Self-test
# --------------------------------------------------------------------------

def _engine_point(**overrides):
    p = {
        "protocol": "general", "population": 4096, "num_active": 256,
        "channels": 32, "trials": 100,
        "engines": {
            name: {"seconds": 1.0, "trials_per_sec": 100.0,
                   "rounds_per_sec": 1000.0, "node_rounds_per_sec": 1e6}
            for name in ("coroutine", "batch")
        },
        "speedup_trials_per_sec": 1.0,
    }
    p.update(overrides)
    return p


def _faults_point(jam=0.0, success=1.0, trials=100, **overrides):
    solved = round(success * trials)
    p = {
        "protocol": "general", "population": 4096, "num_active": 256,
        "channels": 32, "trials": trials, "max_rounds": 2000,
        "faults": {"jam_rate": jam, "erasure_rate": 0.0,
                   "flaky_cd_rate": 0.0, "crash_rate": 0.0},
        "solved": solved, "unsolved": trials - solved,
        "timed_out": trials - solved, "aborted": 0, "wedged": 0,
        "success_rate": solved / trials, "mean_solved_rounds": 10.0,
        "round_inflation": 1.0, "faults_injected": 0, "crashed_nodes": 0,
    }
    p.update(overrides)
    return p


def _adversary_point(strategy="primary_camper", fraction=0.0, success=1.0,
                     trials=100, budget=None, **overrides):
    solved = round(success * trials)
    if budget is None:
        budget = round(fraction * 2000 * 2)
    p = {
        "protocol": "general", "population": 4096, "num_active": 256,
        "channels": 32, "trials": trials, "max_rounds": 2000,
        "adversary": {"strategy": strategy, "obs": "full", "budget": budget,
                      "budget_fraction": fraction, "per_round_cap": 2,
                      "rate": 0.0},
        "solved": solved, "unsolved": trials - solved,
        "timed_out": trials - solved, "aborted": 0, "wedged": 0,
        "silent_failures": 0, "success_rate": solved / trials,
        "mean_solved_rounds": 10.0, "round_inflation": 1.0,
        "adv_jams_spent": min(budget, 5) * trials,
        "adv_jams_effective": 0,
    }
    p.update(overrides)
    return p


def _wrapped_side(rate, trials, budget, retries, rounds_total):
    ok = round(rate * trials)
    return {
        "solved": ok, "unsolved": trials - ok, "timed_out": trials - ok,
        "aborted": 0, "wedged": 0, "silent_failures": 0,
        "success_rate": ok / trials,
        "confirmed": ok, "confirmed_rate": ok / trials,
        "mean_solved_rounds": 10.0,
        "epochs_used": retries + trials, "retries": retries,
        "confirm_rounds": 3 * trials, "backoff_rounds": 2 * trials,
        "rounds_total": rounds_total,
        "adv_jams_spent": min(budget, 5) * trials,
        "adv_jams_effective": min(budget, 4) * trials,
        "adv_rounds_held": trials,
        "adv_jams_echo": min(budget, 3) * trials,
        "adv_jams_backoff": min(budget, 1) * trials,
    }


def _robust_point(strategy="primary_camper", fraction=0.0, bare_success=1.0,
                  static_rate=1.0, adaptive_rate=1.0, trials=100,
                  retries=0, **overrides):
    bare_solved = round(bare_success * trials)
    budget = round(fraction * 2000 * 2)
    static_side = _wrapped_side(static_rate, trials, budget, retries, 1000)
    adaptive_side = _wrapped_side(adaptive_rate, trials, budget, retries, 800)
    adaptive_side.update({"adaptive_confirm_extra": 5 * trials,
                          "adaptive_backoff_trimmed": trials,
                          "confirm_quorum_peak": 12})
    p = {
        "protocol": "general", "population": 4096, "num_active": 256,
        "channels": 32, "bare_max_rounds": 2000, "wrapped_max_rounds": 32000,
        "trials": trials,
        "adversary": {"strategy": strategy, "obs": "full", "budget": budget,
                      "budget_fraction": fraction, "per_round_cap": 2},
        "faults": {"name": "none", "erasure_rate": 0.0, "flaky_cd_rate": 0.0,
                   "fault_seed": 0},
        "robust": {"max_epochs": 32, "confirm_attempts": 3,
                   "backoff_base": 2, "backoff_cap": 1024},
        "bare": {"solved": bare_solved, "unsolved": trials - bare_solved,
                 "timed_out": 0, "aborted": 0, "wedged": 0,
                 "silent_failures": trials - bare_solved,
                 "success_rate": bare_solved / trials},
        "static": static_side,
        "adaptive": adaptive_side,
        "overhead_vs_static": 800 / 1000,
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(p.get(key), dict):
            p[key] = dict(p[key], **value)
        else:
            p[key] = value
    return p


def _v3r_point(budget, rate, trials=20, policy="static", retries=0,
               **overrides):
    confirmed = round(rate * trials)
    p = {
        "budget": budget, "solved": confirmed,
        "unsolved": trials - confirmed, "timed_out": trials - confirmed,
        "aborted": 0, "wedged": 0, "silent_failures": 0,
        "confirmed": confirmed, "rate": confirmed / trials,
        "pass": confirmed / trials >= 0.99,
        "epochs_used": retries + trials, "retries": retries,
        "rounds_total": 1000,
        "adv_jams_spent": 0 if budget == 0 else min(budget, 40) * trials,
        "adv_jams_effective": 0 if budget == 0 else min(budget, 10) * trials,
        "probe_rounds_detected": (
            64 if policy != "static" and budget > 0 else 0),
        "obfuscation_rounds": (
            48 if policy == "hardened" and budget > 0 else 0),
    }
    p.update(overrides)
    return p


def _v3r_curve(protocol, strategy, policy, min_break=None, hi=16384,
               trials=20, **overrides):
    """A v3 bisection curve: censored (min_break None — the two endpoint
    evals only) or a 4-point bracket breaking at min_break (>= 2)."""
    if min_break is None:
        # Hardened censored curves bake in the jam-credit exemption: the
        # deep endpoint's retries exceed (max_epochs - 1) * trials, which
        # only the hardened policy is allowed to do.
        deep_retries = 8 * trials if policy == "hardened" else 5 * trials
        points = [_v3r_point(0, 1.0, trials, policy),
                  _v3r_point(hi, 1.0, trials, policy, retries=deep_retries)]
        break_budget, pass_budget = -1, hi
    else:
        points = [_v3r_point(0, 1.0, trials, policy),
                  _v3r_point(min_break - 1, 1.0, trials, policy,
                             retries=3 * trials),
                  _v3r_point(min_break, 0.8, trials, policy,
                             retries=6 * trials),
                  _v3r_point(hi, 0.4, trials, policy, retries=7 * trials)]
        break_budget, pass_budget = min_break, min_break - 1
    c = {
        "protocol": protocol, "population": 65536, "num_active": 2,
        "channels": 32, "wrapped_max_rounds": 40000, "per_round_cap": 1,
        "strategy": strategy, "policy": policy, "trials": trials,
        "robust": {"max_epochs": 8, "confirm_attempts": 3,
                   "backoff_base": 2, "backoff_cap": 1024},
        "budget_lo": 0, "budget_hi": hi, "evals": len(points),
        "points": points, "min_break_budget": break_budget,
        "max_pass_budget": pass_budget,
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(c.get(key), dict):
            c[key] = dict(c[key], **value)
        else:
            c[key] = value
    return c


def _robust_v3_doc(**overrides):
    # Static cracks early against every strategy; adaptive survives
    # everything except probing, which breaks it mid-range (the round-3
    # witness); hardened is censored everywhere.
    curves = []
    for proto in ROBUST_V3_PROTOCOLS:
        for strat in ROBUST_V3_STRATEGIES:
            curves.append(_v3r_curve(proto, strat, "static", min_break=100))
            curves.append(_v3r_curve(
                proto, strat, "adaptive",
                min_break=5000 if strat == "probing" else None))
            curves.append(_v3r_curve(proto, strat, "hardened"))
    doc = {"schema": ROBUST_SCHEMA, "mode": "full", "pass_floor": 0.99,
           "witness_floor": 0.9, "curves": curves}
    doc.update(overrides)
    return doc


def _check_robust_v3_doc(doc):
    """Runs the full v3 pipeline the way run_checks does."""
    curves, pass_floor, witness_floor = validate_robust_v3(doc, "mem")
    check_robust_v3_claims(curves, pass_floor, witness_floor)


def _v3r_find(doc, protocol, strategy, policy):
    for c in doc["curves"]:
        if (c["protocol"], c["strategy"], c["policy"]) == \
                (protocol, strategy, policy):
            return c
    raise KeyError((protocol, strategy, policy))


def _traffic_point(lam=0.1, jam=0.0, arrivals=4000, delivered=4000,
                   rounds=40000, failed=0, coroutine=0, **overrides):
    episodes = delivered + failed
    singleton = episodes // 2
    p = {
        "protocol": "two_active", "arrival": "poisson", "lambda": lam,
        "jam_rate": jam, "stations": 64, "channels": 32,
        "horizon_rounds": 40000, "rounds": rounds,
        "arrivals": arrivals, "delivered": delivered,
        "backlog_remaining": arrivals - delivered, "backlog_peak": 16,
        "episodes": episodes, "failed_episodes": failed,
        "singleton_deliveries": singleton,
        "engine_episodes_batch": episodes - singleton - coroutine,
        "engine_episodes_coroutine": coroutine,
        "throughput": delivered / rounds,
        "delivery_ratio": delivered / arrivals,
        "mean_latency": 2.0, "latency_p50": 1.0, "latency_p95": 5.0,
        "latency_p99": 9.0, "jain_fairness": 0.97,
    }
    p.update(overrides)
    return p


def _million_block(**overrides):
    m = {
        "protocol": "two_active", "lambda": 0.12,
        "horizon_rounds": 10_000_000, "seconds": 0.2,
        "arrivals": 1_200_000, "delivered": 1_200_000,
        "backlog_remaining": 0, "episodes": 1_200_000,
        "singleton_deliveries": 1_100_000,
        "engine_episodes_batch": 100_000,
        "engine_episodes_coroutine": 0, "throughput": 0.12,
    }
    m.update(overrides)
    return m


def _traffic_doc(**overrides):
    # One (two_active, jam 0) group whose grid straddles a knee at λ=0.30:
    # full delivery through 0.20, ratio 0.95 at 0.30, saturation at 0.45.
    doc = {
        "schema": TRAFFIC_SCHEMA,
        "mode": "full",
        "config": {"stations": 64, "channels": 32, "horizon_rounds": 40000,
                   "episode_max_rounds": 4096, "knee_delivery_floor": 0.9,
                   "fairness_min_delivered": 1024},
        "points": [
            _traffic_point(lam=0.10, arrivals=4000, delivered=4000),
            _traffic_point(lam=0.20, arrivals=8000, delivered=8000),
            _traffic_point(lam=0.30, arrivals=12000, delivered=11400),
            _traffic_point(lam=0.45, arrivals=18000, delivered=12000),
        ],
        "knees": [{"protocol": "two_active", "jam_rate": 0.0,
                   "knee_lambda": 0.30}],
        "pristine_fairness_floor": 0.97,
        "million_trace": _million_block(),
    }
    doc.update(overrides)
    return doc


def _check_traffic_doc(doc, fairness_floor=0.9, tolerance=0.05):
    """Runs the full traffic pipeline the way run_checks does."""
    config, points = validate_traffic(doc, "mem")
    check_traffic_knees(points, doc.get("knees"), config, tolerance)
    check_traffic_fairness(points, config,
                           doc.get("pristine_fairness_floor"),
                           fairness_floor)
    check_traffic_million(doc, "mem")


def _expect_ok(what, fn):
    try:
        fn()
    except ValidationFailure as e:
        print(f"self-test: {what}: unexpected failure: {e}", file=sys.stderr)
        return False
    return True


def _expect_fail(what, fn, needle):
    try:
        fn()
    except ValidationFailure as e:
        if needle in str(e):
            return True
        print(f"self-test: {what}: failed with {e!r}, expected substring "
              f"{needle!r}", file=sys.stderr)
        return False
    print(f"self-test: {what}: expected a failure, got none", file=sys.stderr)
    return False


def _trial_block(speedup=2.0, lane_width=32):
    return {
        "lane_width": lane_width, "rng": "philox",
        "engines": {
            "batch": {"seconds": 1.0, "trials_per_sec": 100.0,
                      "rounds_per_sec": 1000.0, "node_rounds_per_sec": 1e6},
            "trial_batch": {"seconds": 1.0 / speedup,
                            "trials_per_sec": 100.0 * speedup,
                            "rounds_per_sec": 1000.0 * speedup,
                            "node_rounds_per_sec": 1e6 * speedup},
        },
        "speedup_trials_per_sec": speedup,
    }


def _sweep_block(speedup=2.0, points=32, **overrides):
    spawn_secs = 1.0
    block = {
        "protocol": "two_active", "threads": 8, "points": points,
        "trials_per_point": 256, "lane_width": 8,
        "spawn": {"seconds": spawn_secs,
                  "points_per_sec": points / spawn_secs},
        "executor": {"seconds": spawn_secs / speedup,
                     "points_per_sec": points * speedup / spawn_secs},
        "speedup_points_per_sec": speedup,
    }
    block.update(overrides)
    return block


def _engine_doc(**overrides):
    doc = {
        "schema": ENGINE_SCHEMA,
        "metadata": {"cpu": "Test CPU", "compiler": "g++ 0.0",
                     "dispatch": "avx2", "rng": "xoshiro", "lane_width": 32},
        "kernels": [{"name": "coin_mask", "backend": "scalar",
                     "lanes": 4096, "items_per_sec": 1e9},
                    {"name": "coin_mask", "backend": "avx2",
                     "lanes": 4096, "items_per_sec": 4e9}],
        "points": [
            _engine_point(protocol="two_active", num_active=2,
                          trial=_trial_block()),
            _engine_point(),  # no trial twin: no block
            _engine_point(protocol="reduce", population=4096, num_active=8,
                          channels=1, trial=_trial_block(speedup=1.6)),
            _engine_point(protocol="leaf_election", population=4096,
                          num_active=12, channels=31,
                          trial=_trial_block(speedup=1.4)),
        ],
        "sweep_throughput": _sweep_block(),
    }
    doc.update(overrides)
    return doc


def self_test():
    faults_doc = {
        "schema": FAULTS_SCHEMA,
        "points": [_faults_point(jam=0.0, success=1.0),
                   _faults_point(jam=0.2, success=0.8),
                   _faults_point(jam=0.4, success=0.5)],
    }
    rising = {
        "schema": FAULTS_SCHEMA,
        "points": [_faults_point(jam=0.0, success=0.5),
                   _faults_point(jam=0.4, success=0.9)],
    }
    bad_counts = {
        "schema": FAULTS_SCHEMA,
        "points": [_faults_point(jam=0.0, success=1.0, unsolved=5)],
    }
    bad_rate = {
        "schema": FAULTS_SCHEMA,
        "points": [_faults_point(jam=1.5)],
    }
    bad_success = {
        "schema": FAULTS_SCHEMA,
        "points": [_faults_point(jam=0.0, success=1.0, success_rate=0.5)],
    }
    no_cpu = _engine_doc()
    no_cpu["metadata"] = dict(no_cpu["metadata"], cpu="")
    dup_kernel = _engine_doc()
    dup_kernel["kernels"] = [dup_kernel["kernels"][0]] * 2
    slow = _engine_doc()
    fast = _engine_doc(points=[
        dict(p, engines={name: dict(eng, trials_per_sec=200.0)
                         for name, eng in p["engines"].items()})
        for p in slow["points"]])
    adversary_doc = {
        "schema": ADVERSARY_SCHEMA,
        "points": [_adversary_point(fraction=0.0, success=1.0),
                   _adversary_point(fraction=0.25, success=0.6),
                   _adversary_point(fraction=1.0, success=0.1)],
    }
    adv_rising = {
        "schema": ADVERSARY_SCHEMA,
        "points": [_adversary_point(fraction=0.25, success=0.4),
                   _adversary_point(fraction=1.0, success=0.9)],
    }
    adv_bad_strategy = {
        "schema": ADVERSARY_SCHEMA,
        "points": [_adversary_point(strategy="camper")],
    }
    adv_overspent = {
        "schema": ADVERSARY_SCHEMA,
        "points": [_adversary_point(fraction=0.25, budget=3,
                                    adv_jams_spent=400)],
    }
    adv_bad_breakdown = {
        "schema": ADVERSARY_SCHEMA,
        "points": [_adversary_point(fraction=0.25, success=0.5,
                                    silent_failures=10)],
    }
    adv_bad_effective = {
        "schema": ADVERSARY_SCHEMA,
        "points": [_adversary_point(fraction=0.25, adv_jams_effective=9999)],
    }
    v3_missing = _robust_v3_doc()
    v3_missing["curves"] = v3_missing["curves"][:-1]
    v3_duplicate = _robust_v3_doc()
    v3_duplicate["curves"].append(dict(v3_duplicate["curves"][-1]))
    v3_bad_rate = _robust_v3_doc()
    _v3r_find(v3_bad_rate, "two_active", "primary_camper",
              "static")["points"][-1]["rate"] = 0.5
    v3_bad_pass = _robust_v3_doc()
    _v3r_find(v3_bad_pass, "two_active", "primary_camper",
              "static")["points"][-1]["pass"] = True
    v3_unsorted = _robust_v3_doc()
    _v3r_find(v3_unsorted, "two_active", "primary_camper",
              "static")["points"][2]["budget"] = 99
    v3_no_endpoint = _robust_v3_doc()
    _v3r_find(v3_no_endpoint, "two_active", "primary_camper",
              "hardened")["points"][-1]["budget"] = 16383
    v3_bad_bracket = _robust_v3_doc()
    _v3r_find(v3_bad_bracket, "two_active", "primary_camper",
              "static")["points"][-1] = _v3r_point(16384, 1.0,
                                                   retries=3 * 20)
    v3_bad_break = _robust_v3_doc()
    _v3r_find(v3_bad_break, "two_active", "primary_camper",
              "static")["min_break_budget"] = 99
    v3_bad_evals = _robust_v3_doc()
    _v3r_find(v3_bad_evals, "two_active", "primary_camper",
              "static")["evals"] = 99
    # retries beyond the bounded allowance on an UN-hardened curve: 150 >
    # (max_epochs - 1) * trials = 140 (the good doc carries 160 on a
    # hardened point, exercising the jam-credit exemption).
    v3_retry_overrun = _robust_v3_doc()
    bad_point = _v3r_find(v3_retry_overrun, "two_active", "primary_camper",
                          "static")["points"][1]
    bad_point["retries"] = 150
    bad_point["epochs_used"] = 170
    v3_counter_leak = _robust_v3_doc()
    _v3r_find(v3_counter_leak, "two_active", "primary_camper",
              "static")["points"][1]["obfuscation_rounds"] = 5
    v3_probe_leak = _robust_v3_doc()
    _v3r_find(v3_probe_leak, "two_active", "primary_camper",
              "static")["points"][1]["probe_rounds_detected"] = 7
    v3_bad_pristine = _robust_v3_doc()
    _v3r_find(v3_bad_pristine, "two_active", "primary_camper",
              "static")["points"][0] = _v3r_point(0, 0.5)
    v3_hardened_breach = _robust_v3_doc()
    v3_hardened_breach["curves"] = [
        _v3r_curve("two_active", "probing", "hardened", min_break=6000)
        if (c["protocol"], c["strategy"], c["policy"]) ==
           ("two_active", "probing", "hardened") else c
        for c in v3_hardened_breach["curves"]]
    v3_lowered_frontier = _robust_v3_doc()
    v3_lowered_frontier["curves"] = [
        _v3r_curve("two_active", "lookahead", "hardened", min_break=50)
        if (c["protocol"], c["strategy"], c["policy"]) ==
           ("two_active", "lookahead", "hardened") else c
        for c in v3_lowered_frontier["curves"]]
    v3_no_witness = _robust_v3_doc()
    v3_no_witness["curves"] = [
        _v3r_curve(c["protocol"], "probing", "adaptive")
        if (c["strategy"], c["policy"]) == ("probing", "adaptive") else c
        for c in v3_no_witness["curves"]]
    checks = [
        _expect_ok("engine schema accepts a valid doc",
                   lambda: validate_engine(_engine_doc(), "mem")),
        _expect_fail("engine schema rejects empty metadata.cpu",
                     lambda: validate_engine(no_cpu, "mem"),
                     "metadata.cpu"),
        _expect_fail("engine schema rejects a non-positive kernel lane count",
                     lambda: validate_engine(_engine_doc(kernels=[{
                         "name": "coin_mask", "backend": "scalar",
                         "lanes": 0, "items_per_sec": 1e9}]), "mem"),
                     "lanes"),
        _expect_fail("engine schema rejects duplicate kernel entries",
                     lambda: validate_engine(dup_kernel, "mem"),
                     "duplicate (kernel, backend)"),
        _expect_fail("engine schema rejects a missing kernels array",
                     lambda: validate_engine(_engine_doc(kernels=[]), "mem"),
                     "'kernels'"),
        _expect_fail("engine schema requires metadata.lane_width",
                     lambda: validate_engine(
                         _engine_doc(metadata={"cpu": "Test CPU",
                                               "compiler": "g++ 0.0",
                                               "dispatch": "avx2",
                                               "rng": "xoshiro"}), "mem"),
                     "lane_width"),
        _expect_fail("engine schema rejects a trial block without "
                     "trial_batch",
                     lambda: validate_engine(
                         _engine_doc(points=[_engine_point(
                             num_active=2,
                             trial={"lane_width": 32, "rng": "philox",
                                    "engines": {"batch": {
                                        "seconds": 1.0,
                                        "trials_per_sec": 100.0,
                                        "rounds_per_sec": 1000.0,
                                        "node_rounds_per_sec": 1e6}},
                                    "speedup_trials_per_sec": 1.0})]),
                         "mem"),
                     "trial_batch missing"),
        _expect_fail("engine schema rejects a non-philox trial rng",
                     lambda: validate_engine(
                         _engine_doc(points=[_engine_point(
                             num_active=2,
                             trial=dict(_trial_block(), rng="xoshiro"))]),
                         "mem"),
                     "trial.rng"),
        _expect_fail("engine schema rejects a missing engine",
                     lambda: validate_engine(
                         _engine_doc(points=[_engine_point(engines={})]),
                         "mem"),
                     "coroutine missing"),
        _expect_ok("trial speedup floor passes above the floor",
                   lambda: check_trial_speedup(
                       _engine_doc()["points"][:2], 1.5)),
        _expect_fail("trial speedup floor gates a slow executor",
                     lambda: check_trial_speedup(
                         [_engine_point(num_active=2,
                                        trial=_trial_block(speedup=1.2))],
                         1.5),
                     "trial executor speedup"),
        _expect_fail("trial speedup floor refuses to pass vacuously",
                     lambda: check_trial_speedup([_engine_point()], 1.5),
                     "nothing to gate"),
        _expect_fail("trial speedup floor ignores large-active points",
                     lambda: check_trial_speedup(
                         [_engine_point(num_active=256,
                                        trial=_trial_block(speedup=9.0))],
                         1.5),
                     "nothing to gate"),
        _expect_fail("engine schema requires sweep_throughput",
                     lambda: validate_engine(
                         _engine_doc(sweep_throughput=None), "mem"),
                     "sweep_throughput"),
        _expect_fail("engine schema rejects an inconsistent points_per_sec",
                     lambda: validate_engine(
                         _engine_doc(sweep_throughput=_sweep_block(
                             executor={"seconds": 0.5,
                                       "points_per_sec": 999.0})), "mem"),
                     "points/seconds"),
        _expect_fail("engine schema rejects a cooked sweep speedup",
                     lambda: validate_engine(
                         _engine_doc(sweep_throughput=_sweep_block(
                             speedup_points_per_sec=9.0)), "mem"),
                     "rate ratio"),
        _expect_ok("per-protocol floors pass when every protocol clears",
                   lambda: check_trial_speedup_floors(
                       _engine_doc()["points"],
                       {"two_active": 1.5, "reduce": 1.3,
                        "leaf_election": 1.1})),
        _expect_fail("per-protocol floors gate a slow protocol",
                     lambda: check_trial_speedup_floors(
                         _engine_doc()["points"], {"leaf_election": 1.5}),
                     "trial executor speedup"),
        _expect_fail("per-protocol floors refuse to pass vacuously",
                     lambda: check_trial_speedup_floors(
                         _engine_doc()["points"], {"knockout_cd": 1.3}),
                     "vacuously"),
        _expect_ok("baseline check passes a faster artifact",
                   lambda: check_engine_baseline(fast["points"],
                                                 slow["points"], 0.2)),
        _expect_fail("baseline check gates a regression",
                     lambda: check_engine_baseline(slow["points"],
                                                   fast["points"], 0.2),
                     "regressed"),
        _expect_ok("faults schema accepts a valid doc",
                   lambda: validate_faults(faults_doc, "mem")),
        _expect_ok("monotone check accepts a falling curve",
                   lambda: check_jam_monotonicity(faults_doc["points"], 0.05)),
        _expect_fail("monotone check rejects a rising curve",
                     lambda: check_jam_monotonicity(rising["points"], 0.05),
                     "success_rate rose"),
        _expect_fail("faults schema rejects inconsistent counts",
                     lambda: validate_faults(bad_counts, "mem"),
                     "!= trials"),
        _expect_fail("faults schema rejects out-of-range rates",
                     lambda: validate_faults(bad_rate, "mem"),
                     "above 1.0"),
        _expect_fail("faults schema rejects a wrong success_rate",
                     lambda: validate_faults(bad_success, "mem"),
                     "success_rate"),
        _expect_ok("adversary schema accepts a valid doc",
                   lambda: validate_adversary(adversary_doc, "mem")),
        _expect_ok("budget monotone check accepts a falling curve",
                   lambda: check_budget_monotonicity(
                       adversary_doc["points"], 0.05)),
        _expect_fail("budget monotone check rejects a rising curve",
                     lambda: check_budget_monotonicity(
                         adv_rising["points"], 0.05),
                     "success_rate rose"),
        _expect_fail("adversary schema rejects an unknown strategy",
                     lambda: validate_adversary(adv_bad_strategy, "mem"),
                     "adversary.strategy"),
        _expect_fail("adversary schema rejects an overspent budget",
                     lambda: validate_adversary(adv_overspent, "mem"),
                     "exceeds the aggregate budget"),
        _expect_fail("adversary schema rejects a broken failure breakdown",
                     lambda: validate_adversary(adv_bad_breakdown, "mem"),
                     "!= unsolved"),
        _expect_fail("adversary schema rejects effective > spent",
                     lambda: validate_adversary(adv_bad_effective, "mem"),
                     "adv_jams_effective"),
        _expect_ok("robust v3 schema accepts a valid doc (hardened "
                   "jam-credit retries included)",
                   lambda: _check_robust_v3_doc(_robust_v3_doc())),
        _expect_fail("robust v3 rejects an incomplete grid",
                     lambda: _check_robust_v3_doc(v3_missing),
                     "grid incomplete"),
        _expect_fail("robust v3 rejects a duplicate curve",
                     lambda: _check_robust_v3_doc(v3_duplicate),
                     "duplicate curve"),
        _expect_fail("robust v3 rejects a cooked rate",
                     lambda: _check_robust_v3_doc(v3_bad_rate),
                     "confirmed/trials"),
        _expect_fail("robust v3 rejects a contradictory pass flag",
                     lambda: _check_robust_v3_doc(v3_bad_pass),
                     "pass flag"),
        _expect_fail("robust v3 rejects out-of-order budgets",
                     lambda: _check_robust_v3_doc(v3_unsorted),
                     "strictly ascending"),
        _expect_fail("robust v3 demands both bisection endpoints",
                     lambda: _check_robust_v3_doc(v3_no_endpoint),
                     "must span"),
        _expect_fail("robust v3 rejects a broken bracket invariant",
                     lambda: _check_robust_v3_doc(v3_bad_bracket),
                     "bracket invariant"),
        _expect_fail("robust v3 recomputes min_break_budget",
                     lambda: _check_robust_v3_doc(v3_bad_break),
                     "min_break_budget"),
        _expect_fail("robust v3 rejects an eval-count mismatch",
                     lambda: _check_robust_v3_doc(v3_bad_evals),
                     "evals"),
        _expect_fail("robust v3 caps retries on un-hardened curves",
                     lambda: _check_robust_v3_doc(v3_retry_overrun),
                     "(max_epochs - 1) * trials"),
        _expect_fail("robust v3 pins obfuscation rounds to hardened curves",
                     lambda: _check_robust_v3_doc(v3_counter_leak),
                     "obfuscation_rounds 5 nonzero"),
        _expect_fail("robust v3 rejects probe detection on a static curve",
                     lambda: _check_robust_v3_doc(v3_probe_leak),
                     "probe_rounds_detected 7 nonzero"),
        _expect_fail("robust v3 demands a passing pristine endpoint",
                     lambda: _check_robust_v3_doc(v3_bad_pristine),
                     "pristine"),
        _expect_fail("robust v3 gates the hardened floor",
                     lambda: _check_robust_v3_doc(v3_hardened_breach),
                     "hardened rate"),
        _expect_fail("robust v3 rejects a lowered hardened frontier",
                     lambda: _check_robust_v3_doc(v3_lowered_frontier),
                     "lowered the frontier"),
        _expect_fail("robust v3 demands the probing witness",
                     lambda: _check_robust_v3_doc(v3_no_witness),
                     "probing adversary beating the adaptive policy"),
        _expect_fail("robust v3 rejects witness_floor at the pass floor",
                     lambda: _check_robust_v3_doc(
                         _robust_v3_doc(witness_floor=0.99)),
                     "witness_floor"),
        _expect_ok("traffic schema accepts a valid doc",
                   lambda: _check_traffic_doc(_traffic_doc())),
        _expect_fail("traffic schema rejects broken packet conservation",
                     lambda: _check_traffic_doc(_traffic_doc(
                         points=[_traffic_point(backlog_remaining=5)])),
                     "packet conservation"),
        _expect_fail("traffic schema rejects broken episode accounting",
                     lambda: _check_traffic_doc(_traffic_doc(
                         points=[_traffic_point(singleton_deliveries=1)])),
                     "engine_episodes_batch"),
        _expect_fail("traffic schema rejects a coroutine-served point",
                     lambda: _check_traffic_doc(_traffic_doc(points=[
                         _traffic_point(coroutine=7)])),
                     "coroutine episodes"),
        _expect_fail("traffic schema rejects out-of-order percentiles",
                     lambda: _check_traffic_doc(_traffic_doc(points=[
                         _traffic_point(latency_p95=0.5)])),
                     "percentiles out of order"),
        _expect_fail("traffic schema rejects a cooked throughput",
                     lambda: _check_traffic_doc(_traffic_doc(points=[
                         _traffic_point(throughput=0.9)])),
                     "throughput"),
        _expect_fail("traffic knee check rejects a mismatched knee",
                     lambda: _check_traffic_doc(_traffic_doc(
                         knees=[{"protocol": "two_active", "jam_rate": 0.0,
                                 "knee_lambda": 0.20}])),
                     "knee_lambda"),
        _expect_fail("traffic knee check demands a straddled knee",
                     lambda: _check_traffic_doc(_traffic_doc(points=[
                         _traffic_point(lam=0.10),
                         _traffic_point(lam=0.20, arrivals=8000,
                                        delivered=8000)])),
                     "straddle"),
        _expect_fail("traffic knee check rejects a pre-peak throughput dip",
                     lambda: _check_traffic_doc(_traffic_doc(points=[
                         _traffic_point(lam=0.10, delivered=4000,
                                        arrivals=4000),
                         _traffic_point(lam=0.20, arrivals=8000,
                                        delivered=800),
                         _traffic_point(lam=0.45, arrivals=18000,
                                        delivered=12000)])),
                     "before the peak"),
        _expect_fail("traffic lambda axis must strictly increase",
                     lambda: _check_traffic_doc(_traffic_doc(points=[
                         _traffic_point(lam=0.30, arrivals=12000,
                                        delivered=11400),
                         _traffic_point(lam=0.30, arrivals=12000,
                                        delivered=11400),
                         _traffic_point(lam=0.45, arrivals=18000,
                                        delivered=12000)])),
                     "strictly increasing"),
        _expect_fail("traffic fairness floor rejects a mismatched minimum",
                     lambda: _check_traffic_doc(_traffic_doc(
                         pristine_fairness_floor=0.5)),
                     "does not match"),
        _expect_fail("traffic fairness floor gates an unfair grid",
                     lambda: _check_traffic_doc(_traffic_doc(
                         points=[p | {"jain_fairness": 0.6}
                                 for p in _traffic_doc()["points"]],
                         pristine_fairness_floor=0.6)),
                     "below the required --fairness-floor"),
        _expect_fail("traffic million witness pins coroutine episodes at 0",
                     lambda: _check_traffic_doc(_traffic_doc(
                         million_trace=_million_block(
                             engine_episodes_coroutine=3,
                             engine_episodes_batch=99_997))),
                     "coroutine episodes"),
        _expect_fail("traffic million witness demands 10^6 arrivals",
                     lambda: _check_traffic_doc(_traffic_doc(
                         million_trace=_million_block(
                             arrivals=5000, delivered=5000, episodes=5000,
                             singleton_deliveries=4000,
                             engine_episodes_batch=1000))),
                     "short of the 10^6"),
        _expect_fail("traffic million witness demands a drained trace",
                     lambda: _check_traffic_doc(_traffic_doc(
                         million_trace=_million_block(
                             delivered=1_199_000,
                             backlog_remaining=1000,
                             episodes=1_199_000,
                             engine_episodes_batch=99_000))),
                     "drained"),
    ]
    if not all(checks):
        print("check_bench_json: self-test FAILED", file=sys.stderr)
        sys.exit(1)
    print(f"check_bench_json: self-test OK ({len(checks)} checks)")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("artifact", nargs="?",
                    help="bench JSON artifact to validate")
    ap.add_argument("--baseline",
                    help="committed engine artifact to compare batch "
                         "throughput against")
    ap.add_argument("--max-regression", type=float, default=0.20,
                    help="max fractional drop in batch trials/sec vs the "
                         "baseline (default 0.20)")
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="require batch/coroutine speedup >= this on every "
                         "point")
    ap.add_argument("--min-trial-speedup", type=float, default=None,
                    help="require the trial-parallel executor speedup "
                         ">= this on every small-active point carrying a "
                         "trial block (num_active <= "
                         f"{TRIAL_SPEEDUP_MAX_ACTIVE})")
    ap.add_argument("--trial-speedup-floors", default=None,
                    help="per-protocol trial-executor floors, e.g. "
                         "'two_active=1.5,reduce=1.3'; each named protocol "
                         "must have at least one gated small-active point")
    ap.add_argument("--min-sweep-speedup", type=float, default=None,
                    help="require the sweep_throughput executor speedup "
                         ">= this (persistent pool vs per-point spawn)")
    ap.add_argument("--monotone-tolerance", type=float, default=0.05,
                    help="allowed success_rate rise between adjacent jam "
                         "rates (default 0.05)")
    ap.add_argument("--delivery-floor", type=float, default=0.99,
                    help="minimum wrapped confirmed_rate required on every "
                         "robust point (default 0.99)")
    ap.add_argument("--fairness-floor", type=float, default=0.9,
                    help="minimum pristine Jain fairness required of every "
                         "eligible traffic point (default 0.9)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the validator's own unit checks and exit")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return
    if not args.artifact:
        print("an artifact path is required unless --self-test", file=sys.stderr)
        sys.exit(2)
    if not 0.0 <= args.max_regression < 1.0:
        print("--max-regression must be in [0, 1)", file=sys.stderr)
        sys.exit(2)
    if args.monotone_tolerance < 0.0:
        print("--monotone-tolerance must be >= 0", file=sys.stderr)
        sys.exit(2)
    if not 0.0 <= args.delivery_floor <= 1.0:
        print("--delivery-floor must be in [0, 1]", file=sys.stderr)
        sys.exit(2)
    if not 0.0 <= args.fairness_floor <= 1.0:
        print("--fairness-floor must be in [0, 1]", file=sys.stderr)
        sys.exit(2)
    if args.trial_speedup_floors is not None:
        try:
            args.trial_speedup_floors = parse_trial_floors(
                args.trial_speedup_floors)
        except ValueError as e:
            print(f"--trial-speedup-floors: {e}", file=sys.stderr)
            sys.exit(2)

    try:
        run_checks(args)
    except ValidationFailure as e:
        print(f"check_bench_json: FAIL: {e}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
