"""Output oracles: each checks one command's files against a reference the
benchmark computes itself, and returns the bytes that identify the output.

An oracle raises ``OracleError`` when an output is wrong. The returned
bytes hold the ``results`` section of the command's summary and the data
rows of its CSV files, so ``generated_at``, the host-dependent ``threads``
key and the ``#`` comment lines never enter the digest.

Statistical checks use five standard errors (or more), so a correct
program fails one of them on fewer than one seed in a million.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Line pairings by summary label: (line of the first emitter, line of the second).
COMBOS = {"a1a1": (0, 0), "a2a2": (1, 1), "a1a2": (0, 1), "a2a1": (1, 0)}
Z = 5.0


class OracleError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


def _close(a: float, b: float, tol: float, what: str) -> None:
    _require(abs(a - b) <= tol, f"{what}: {a!r} vs reference {b!r} (tolerance {tol:g})")


def results(d: Path, slug: str) -> dict:
    return json.loads((d / f"{slug}_summary.json").read_text(encoding="utf-8"))["results"]


def csv_rows(path: Path) -> list[list[str]]:
    """Header and data rows of a CSV written by emitternet, comments dropped."""
    with path.open(encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if line.strip() and not line.startswith("#")]
    return list(csv.reader(lines))


def material(res, *csv_paths: Path) -> bytes:
    parts = [json.dumps(res, sort_keys=True).encode()]
    for path in csv_paths:
        rows = "\n".join(",".join(row) for row in csv_rows(path))
        parts.append(f"{path.name}\n{rows}".encode())
    return b"\x00".join(parts)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _line_arrays(d: Path, limit: int | None = None):
    import numpy as np

    rows = csv_rows(d / "line_list.csv")
    _require(rows[0] == ["emitter_id", "f_a1_ghz", "f_a2_ghz", "fwhm_a1_mhz", "fwhm_a2_mhz"],
             f"line_list.csv header is {rows[0]}")
    data = rows[1:] if limit is None else rows[1 : limit + 1]
    arr = np.array([[float(r[1]), float(r[2]), float(r[3]), float(r[4])] for r in data])
    return [r[0] for r in data], arr


def pair_separations_mhz(a1, a2, combos) -> "np.ndarray":
    """Minimum line separation of every unordered pair i < j, one row at a time."""
    import numpy as np

    lines = (a1, a2)
    n = len(a1)
    out = np.empty(n * (n - 1) // 2)
    pos = 0
    for i in range(n - 1):
        sep = None
        for ci, cj in combos:
            d = np.abs(lines[ci][i] - lines[cj][i + 1 :])
            sep = d if sep is None else np.minimum(sep, d)
        out[pos : pos + len(sep)] = sep * 1e3
        pos += len(sep)
    return out


def overlap_reference(seps, windows) -> list[float]:
    """Brute-force pair count: fraction of pairs with separation < window."""
    import numpy as np

    counts = np.searchsorted(np.sort(seps), np.asarray(windows, dtype=float), side="left")
    return [int(c) / len(seps) for c in counts]


def jackknife_std_error(seps, n: int, window: float) -> float:
    """Jackknife standard error of the pair-overlap probability.

    ``seps`` holds the pairs i < j in row order. Leaving emitter i out
    removes its row and column of hits, so each leave-one-out estimate
    costs one subtraction: O(n^2) in all, against the bootstrap's
    O(resamples * n^2).
    """
    import numpy as np

    first, second = np.triu_indices(n, k=1)
    hit = seps < window
    per_emitter = np.bincount(first[hit], minlength=n) + np.bincount(second[hit], minlength=n)
    left_out = (np.count_nonzero(hit) - per_emitter) / ((n - 1) * (n - 2) / 2)
    return math.sqrt((n - 1) / n * float(((left_out - left_out.mean()) ** 2).sum()))


def check_sample(d: Path, n: int) -> bytes:
    res = results(d, "sample")
    _require(res["n_emitters"] == n, f"n_emitters {res['n_emitters']} != {n}")
    ids, arr = _line_arrays(d)
    _require(len(ids) == n and len(set(ids)) == n, "line list must hold n distinct ids")
    a1, a2 = arr[:, 0], arr[:, 1]
    zfs = a2 - a1
    _require(bool((zfs > 0).all()), "every A2 line must lie above its A1 line")
    _require(bool((arr[:, 2:] > 0).all()), "every linewidth must be positive")
    _close(res["zfs_ghz"]["mean"], math.fsum(zfs) / n, 1e-12, "zfs mean")
    _require(res["zfs_ghz"]["min"] == zfs.min() and res["zfs_ghz"]["max"] == zfs.max(),
             "zfs range differs from the line list")
    _require(res["detuning_min_ghz"] == a1.min() and res["detuning_max_ghz"] == a2.max(),
             "detuning range differs from the line list")
    for name, total in (("zfs_histogram.csv", n), ("line_histogram.csv", 2 * n)):
        counts = [int(r[2]) for r in csv_rows(d / name)[1:]]
        _require(sum(counts) == total, f"{name} counts sum to {sum(counts)}, not {total}")
    return material(res, d / "line_list.csv", d / "zfs_histogram.csv", d / "line_histogram.csv")


def check_overlap(d: Path) -> bytes:
    res = results(d, "overlap")
    _, arr = _line_arrays(d)
    n = len(arr)
    combos = [COMBOS[c] for c in res["combos"]]
    seps = pair_separations_mhz(arr[:, 0], arr[:, 1], combos)
    probs = overlap_reference(seps, res["windows_mhz"])
    _require(res["n_emitters"] == n and res["n_pairs"] == len(seps), "pair count differs")
    for w, p, ref in zip(res["windows_mhz"], res["probabilities"], probs):
        _close(p, ref, 1e-12, f"overlap probability at {w:.3f} MHz")
    errors = res["std_errors"]
    _require(len(errors) == len(probs), "one standard error per window")
    # The bootstrap (duplicate pairs dropped) reads about 1.2 times the
    # jackknife at n = 250; a factor of two either way still rejects zero,
    # constant or wrongly scaled errors.
    for w, p, e in zip(res["windows_mhz"], res["probabilities"], errors):
        ref = jackknife_std_error(seps, n, w)
        if p == 0.0:
            _require(e == 0.0, f"standard error at {w:.3f} MHz must be 0 when no pair overlaps")
        else:
            _require(ref / 2.0 <= e <= 2.0 * ref,
                     f"standard error at {w:.3f} MHz is {e!r}, jackknife gives {ref!r}")
    rows = csv_rows(d / "overlap_curve.csv")[1:]
    _require([float(r[1]) for r in rows] == res["probabilities"], "curve CSV differs from summary")
    return material(res, d / "overlap_curve.csv")


def collision_law(q: float, n: int) -> float:
    return 1.0 - (1.0 - q) ** (n * (n - 1) // 2)


def law_threshold(q: float, target: float) -> int:
    n = 2
    while collision_law(q, n) < target:
        n += 1
    return n


def check_birthday(d: Path, q: float, trials: int | None) -> bytes:
    res = results(d, "birthday")
    target = res["target_probability"]
    files = []
    if q is not None:
        _require(res["n_star"] == law_threshold(q, target),
                 f"n_star {res['n_star']} != birthday law {law_threshold(q, target)}")
        for k, p in res["curve"]:
            _close(p, collision_law(q, k), 1e-12, f"collision probability at n={k}")
        files.append(d / "birthday_curve.csv")
    if trials is not None:
        mc = res["monte_carlo"]
        _require(mc["trials"] == trials, f"MC ran {mc['trials']} trials, not {trials}")
        _require(mc["n_star"] is not None and mc["ci95_at_n_star"] is not None,
                 "MC never reached the target")
        # The law at the MC's own pairwise rate, with the rate's sampling
        # error (4 sigma over max(trials, 20000) pairs) and the reported CI
        # of the collision probability as the tolerance.
        qm = mc["pairwise_q"]
        dq = 4.0 * math.sqrt(qm * (1.0 - qm) / max(trials, 20_000))
        lo, hi = mc["ci95_at_n_star"]
        half = (hi - lo) / 2.0
        n_lo = law_threshold(min(qm + dq, 1.0), target - half)
        n_hi = law_threshold(max(qm - dq, 1e-9), target + half)
        _require(n_lo <= mc["n_star"] <= n_hi,
                 f"MC n_star {mc['n_star']} outside the birthday-law range [{n_lo}, {n_hi}]")
        files.append(d / "birthday_mc_curve.csv")
        curve = [float(r[1]) for r in csv_rows(files[-1])[1:]]
        _require(all(b >= a for a, b in zip(curve, curve[1:])), "MC curve must not decrease")
    return material(res, *files)


def check_fit_ple(d: Path, k: int, zfs_ghz: float, fwhm_mhz: float) -> bytes:
    res = results(d, "fit_ple")
    _require(res["converged"] is True, "fit did not converge")
    centers = sorted(p["center_ghz"] for p in res["peaks"])
    truth = [(i - (k - 1) / 2.0) * zfs_ghz for i in range(k)]
    _require(len(centers) == k, f"{len(centers)} peaks fitted, not {k}")
    # A quarter of the synthesized FWHM: four times the largest center error
    # seen over 60 seeds with shot noise.
    for c, t in zip(centers, truth):
        _close(c, t, fwhm_mhz / 4.0 * 1e-3, "fitted center (GHz)")
    if "pair_assignment" in res:
        _require(res["pair_assignment"]["shared_peak"] == 1, "middle peak must be the shared one")
    return material(res, d / "ple_spectrum.csv")


def check_protocol(d: Path, n: int, eta: float) -> bytes:
    res = results(d, "protocol")
    _close(res["success_probability"], 2.0 ** (1 - n), 1e-12, "chain success probability")
    for p in res["herald_probabilities"]:
        _close(p, 0.5, 1e-12, "herald probability")
    _close(res["fidelity_enumeration"], 1.0 / (1.0 + (n - 1) * (1.0 - eta)), 1e-9, "lossy fidelity")
    _close(res["fidelity_published"], (1.0 / (3.0 - 2.0 * eta)) ** (n - 1), 1e-12,
           "published fidelity")
    files = []
    if "sweep" in res:
        for row in res["sweep"]:
            e = row["eta"]
            _close(row["fidelity_enumeration"], 1.0 / (1.0 + (n - 1) * (1.0 - e)), 1e-9,
                   f"lossy fidelity at eta={e}")
        files.append(d / "fidelity_sweep.csv")
    return material(res, *files)


def check_spatial(d: Path, lateral_um: float, chain_k: int | None, seed: int) -> bytes:
    res = results(d, "spatial")
    trials = res["trials"]
    lam = res["density_per_um3"] * math.pi / 6.0 * lateral_um**2 * res["axial_fwhm_um"]
    _close(res["spot_mean_occupancy_poisson"], lam, 1e-12, "Poisson mean occupancy")
    _close(res["spot_mean_occupancy"], lam, Z * math.sqrt(lam / trials), "mean occupancy")
    for k, p in enumerate(res["occupancy_distribution"][:3]):
        ref = math.exp(-lam) * lam**k / math.factorial(k)
        _close(p, ref, Z * math.sqrt(ref * (1 - ref) / trials) + 1.0 / trials,
               f"P(occupancy = {k})")
    multi = 1.0 - math.exp(-lam) * (1.0 + lam)
    _close(res["multi_emitter_fraction"], multi,
           Z * math.sqrt(multi * (1 - multi) / trials) + 1.0 / trials, "multi-emitter fraction")
    files = []
    if "scene" in res:
        scene = res["scene"]
        rows = csv_rows(d / "scene.csv")[1:]
        _require(len(rows) == scene["count"], "scene CSV row count differs from summary")
        box = scene["box_um"]
        _require(all(0.0 <= float(v) <= b for r in rows for v, b in zip(r, box)),
                 "scene position outside the box")
        mean = res["density_per_um3"] * box[0] * box[1] * box[2]
        _close(scene["count"], mean, Z * math.sqrt(mean), "scene emitter count")
        files.append(d / "scene.csv")
    if chain_k is not None:
        chain = res["spectral_chain"]
        _require(chain["k"] == chain_k, "chain length differs from the request")
        ensemble = json.loads((d / "spatial_summary.json").read_text(encoding="utf-8"))["config"][
            "ensemble"]
        _close(chain["window_mhz"], 1e3 / (2.0 * math.pi * ensemble["lifetime_ns"]), 1e-9,
               "chain window (lifetime-limited linewidth, MHz)")
        rate, own_trials = chain["probability"], CHAIN_TRIALS
        own = chain_hits(ensemble, chain_k, chain["window_mhz"], own_trials, seed) / own_trials
        # Both rates estimate one probability: five standard errors of their
        # difference, plus one own trial so that a pooled rate of 0 still
        # leaves room for a rare hit in the program's trials.
        n_prog = max(trials, 10_000)
        pooled = (rate * n_prog + own * own_trials) / (n_prog + own_trials)
        tol = Z * math.sqrt(pooled * (1 - pooled) * (1 / n_prog + 1 / own_trials)) + 1 / own_trials
        _close(rate, own, tol, f"chain rate (own estimate from {own_trials} trials)")
    return material(res, *files)


# Trials of the benchmark's own chain estimate: a few thousand keep the check
# well under a second.
CHAIN_TRIALS = 4000


def chain_hits(ensemble: dict, k: int, window_mhz: float, trials: int, seed: int) -> int:
    """Trials, of ``trials`` drawn here from the configured ensemble, in which
    k co-located emitters can be ordered so every step A2(i) -> A1(i+1) is
    closer than the window.

    The draws use the benchmark's own generator, not the program's sampler,
    and the test is a depth-first search over orderings, not the program's
    subset dynamic programming.
    """
    import numpy as np

    rng = np.random.default_rng([seed, k, trials])
    centre = ensemble["center"]
    if centre["kind"] == "uniform":
        half = centre["half_width_ghz"]
        centres = rng.uniform(-half, half, (trials, k))
    else:
        centres = rng.normal(0.0, centre["sigma_ghz"], (trials, k))
    zfs = rng.normal(ensemble["zfs_mean_ghz"], ensemble["zfs_sigma_ghz"], (trials, k))
    while (bad := zfs <= 0).any():
        zfs[bad] = rng.normal(ensemble["zfs_mean_ghz"], ensemble["zfs_sigma_ghz"], bad.sum())
    a1, a2 = centres - zfs / 2.0, centres + zfs / 2.0
    step = np.abs(a2[:, :, None] - a1[:, None, :]) < window_mhz * 1e-3
    step[:, np.arange(k), np.arange(k)] = False
    # An ordering has one first and one last emitter, so a trial with two
    # emitters lacking a predecessor, or two lacking a successor, has none.
    no_pred = np.count_nonzero(~step.any(axis=1), axis=1)
    no_succ = np.count_nonzero(~step.any(axis=2), axis=1)
    candidates = np.flatnonzero((no_pred <= 1) & (no_succ <= 1))
    return sum(_has_ordering(step[t]) for t in candidates)


def _has_ordering(step) -> bool:
    k = len(step)
    succ = [[v for v in range(k) if step[u, v]] for u in range(k)]
    full = (1 << k) - 1
    dead: set[tuple[int, int]] = set()

    def extend(u: int, seen: int) -> bool:
        if seen == full:
            return True
        if (u, seen) in dead:
            return False
        if any(not seen >> v & 1 and extend(v, seen | 1 << v) for v in succ[u]):
            return True
        dead.add((u, seen))
        return False

    return any(extend(u, 1 << u) for u in range(k))


def check_report(d: Path) -> bytes:
    report = json.loads((d / "report.json").read_text(encoding="utf-8"))
    sections = report["sections"]
    summaries = sorted(p for p in d.glob("*_summary.json") if p.name != "report_summary.json")
    _require(len(sections) == len(summaries), "report must hold one section per summary")
    for path in summaries:
        doc = json.loads(path.read_text(encoding="utf-8"))
        _require(sections[doc["command"]]["results"] == doc["results"],
                 f"report section {doc['command']} differs from {path.name}")
    return material({c: s["results"] for c, s in sorted(sections.items())})


def check_large(d: Path, n_rows: int, n: int) -> bytes:
    res = json.loads((d / "large_overlap.json").read_text(encoding="utf-8"))
    _require(res["n_records"] == n_rows, f"read {res['n_records']} records, not {n_rows}")
    _, arr = _line_arrays(d, limit=n)
    seps = pair_separations_mhz(arr[:, 0], arr[:, 1], COMBOS.values())
    probs = overlap_reference(seps, res["windows_mhz"])
    _require(res["n_emitters"] == n and res["n_pairs"] == len(seps), "pair count differs")
    for w, p, ref in zip(res["windows_mhz"], res["probabilities"], probs):
        _close(p, ref, 1e-12, f"large overlap probability at {w:.3f} MHz")
    res.pop("large_overlap_s")
    return material(res)
