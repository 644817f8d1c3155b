"""Command line surface: reproducible runs over the analysis modules.

Each subcommand computes everything first and returns its results and
its files; :func:`main` then writes the files (plot-ready CSV tables) and
a ``<command>_summary.json`` document into the output directory. Summaries
embed the tool version, the SHA-256 hash of the fully resolved
configuration, and the seeds, so identical config and seed reproduce
byte-identical output except for the single ``generated_at`` timestamp
field.

Exit codes: 0 success, 1 usage error, 2 data or validation error,
3 fit non-convergence. Errors are printed as single-line JSON on stderr.
A run that exits 1 or 2 leaves the output directory as it was, or absent
if it did not exist: the files are written into a staging directory there
and renamed into place only once every one is written. A run that exits 3
writes its summary (and, for ``fit-ple --synthetic``, the spectrum) before
the error.
"""
# This module imports no numpy: ``--version``, argument errors and ``report``
# run from it alone. ``--version`` loads no argparse either: :func:`main` writes
# its line before it builds the parser. The computing subcommands live in
# :mod:`emitternet._commands`, which :func:`main` imports only for them, and
# each of them loads only the analysis modules it uses.
from __future__ import annotations

import contextlib
import errno
import os
import shutil
import sys
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from . import __version__
from .errors import ConfigError, EmitterNetError, SummaryError, UsageError

# ``--version`` needs neither argparse, the config, the seeds nor json, and a
# usage error needs only argparse and json: each is imported where the code
# that uses it runs
if TYPE_CHECKING:
    import argparse

    from .config import RunConfig
    from .seeding import SeedSpec

SEED_ENV_VAR = "EMITTERNET_SEED"

# the line ``--version`` prints, by main itself or by the parser's action
VERSION = f"emitternet {__version__}"

PROVENANCE_NOTE = (
    "Overlap statistics are computed from constructed fixtures or parametric "
    "ensemble resampling; the measured per-emitter line list is not published "
    "and is represented only by its distribution parameters."
)


def _utc_now() -> str:
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).isoformat()


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):  # noqa: A003 - argparse API
            raise UsageError(message)

    # A flag that sets a config value stores it under that value's dotted
    # config path (its ``dest``); see _load_config.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="path to a JSON run configuration")
    common.add_argument("--out", dest="output_dir", type=Path, help="output directory")
    common.add_argument("--seed", type=int, help="base seed (overrides config and environment)")
    common.add_argument("--stream-index", type=int, help="seed stream index")

    parser = _Parser(prog="emitternet", description=__doc__)
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", parents=[common], help="sample an emitter ensemble to CSV")
    p.add_argument("--n", dest="sample.n_emitters", type=int, help="number of emitters")

    p = sub.add_parser("overlap", parents=[common], help="pair-overlap probability curve")
    p.add_argument("--input", type=Path, help="line-list CSV (default: sample from the model)")
    p.add_argument("--n", dest="sample.n_emitters", type=int, help="emitters to sample if no input")
    p.add_argument(
        "--window-mhz", dest="windows_mhz", type=float, action="append",
        help="overlap window (repeatable)",
    )
    p.add_argument("--bootstrap", dest="overlap.bootstrap_resamples", type=int,
                   help="bootstrap resamples for error bars")

    p = sub.add_parser("birthday", parents=[common], help="collision threshold analysis")
    p.add_argument("--q", dest="birthday.q", type=float, help="pairwise overlap probability")
    p.add_argument("--target", dest="birthday.target", type=float,
                   help="target collision probability")
    p.add_argument("--mc", dest="birthday.monte_carlo", action="store_true",
                   help="add a sequential Monte Carlo cross-check")
    p.add_argument("--trials", dest="birthday.trials", type=int, help="Monte Carlo trials")
    p.add_argument("--window-mhz", dest="birthday.window_mhz", type=float,
                   help="overlap window for the Monte Carlo run")

    p = sub.add_parser("fit-ple", parents=[common], help="multi-Lorentzian spectrum fit")
    p.add_argument("--input", type=Path, help="spectrum CSV (frequency_ghz,counts)")
    p.add_argument("--synthetic", action="store_true", help="fit a synthesized demo spectrum")
    p.add_argument("--k", dest="fit_ple.n_peaks", type=int, help="number of peaks")
    p.add_argument("--classify", dest="fit_ple.classify", action="store_true",
                   help="classify a 3-peak pair spectrum")

    p = sub.add_parser("protocol", parents=[common], help="heralded GHZ chain simulation")
    p.add_argument("--n", dest="protocol.n_qubits", type=int, help="number of spin qubits")
    p.add_argument("--eta", dest="protocol.eta", type=float, help="photon detection efficiency")
    p.add_argument("--sweep", action="store_true", help="also sweep fidelity over eta")

    p = sub.add_parser("spatial", parents=[common], help="confocal spot occupancy statistics")
    p.add_argument("--density", dest="spatial.density_per_um3", type=float,
                   help="emitter density per cubic micron")
    p.add_argument("--lateral-fwhm-um", dest="spatial.lateral_fwhm_um", type=float,
                   help="lateral PSF FWHM (required)")
    p.add_argument("--axial-fwhm-um", dest="spatial.axial_fwhm_um", type=float,
                   help="axial PSF FWHM")
    p.add_argument("--trials", dest="spatial.trials", type=int, help="Monte Carlo trials")
    p.add_argument("--chain-k", dest="spatial.chain_length", type=int,
                   help="spectral chain length to evaluate")
    p.add_argument("--chain-window-mhz", dest="spatial.chain_window_mhz", type=float,
                   help="chain overlap window")
    p.add_argument("--export-scene", action="store_true", help="also export a sampled 3D scene")

    sub.add_parser("report", parents=[common], help="aggregate summaries in the output directory")
    return parser


def _load_config(args) -> RunConfig:
    from .config import RunConfig

    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from None
        cfg = RunConfig.from_json(text)
    else:
        cfg = RunConfig.from_mapping({})
    # Flags that set a config value are stored under its dotted path; an
    # unset flag (None, or False for a switch) overrides nothing.
    overrides: dict[str, Any] = {}
    for dest, value in vars(args).items():
        if value is None or value is False or ("." not in dest and dest not in cfg.data):
            continue
        *path, key = dest.split(".")
        section = overrides
        for name in path:
            section = section.setdefault(name, {})
        section[key] = str(value) if isinstance(value, Path) else value
    return cfg.with_overrides(overrides)


def _resolve_seed(cfg: RunConfig) -> SeedSpec:
    env = os.environ.get(SEED_ENV_VAR)
    if cfg.data["seed"] is None and env is not None:
        try:
            return cfg.seed_spec(fallback=int(env))
        except ValueError:  # not an integer, or a DomainError for a seed out of range
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
    return cfg.seed_spec()


def _out_dir(cfg: RunConfig) -> Path:
    return Path(cfg.data["output_dir"] or "emitternet_out")


def _json_rows(rows: list | tuple, indent: str) -> str | None:
    """A list of non-empty flat rows of numbers, bools and nulls (such as the
    ``[re, im]`` amplitude pairs), encoded by the C encoder in compact form
    and then indented; None for any other list.

    Without strings, dicts or nested lists, every ``,`` separates two cells
    or two rows and every ``[`` opens a row, so two replacements indent it.
    """
    if not all(map(isinstance, rows, repeat((list, tuple)))):
        return None
    import json

    compact = json.dumps(rows, separators=(",", ":"))
    if (
        '"' in compact
        or "{" in compact
        or "[]" in compact
        or compact.count("[") != len(rows) + 1
    ):
        return None
    row_indent = indent + "  "
    cell_indent = row_indent + "  "
    body = compact[2:-2].replace(",", "," + cell_indent)
    body = body.replace(
        "]," + cell_indent + "[", row_indent + "]," + row_indent + "[" + cell_indent
    )
    return "[" + row_indent + "[" + cell_indent + body + row_indent + "]" + indent + "]"


def _json_value(value: Any, indent: str, markers: set[int], out: list[str]) -> None:
    """Append to ``out`` the pieces of ``value`` as ``json.dumps(...,
    sort_keys=True, indent=2)`` writes it at the nesting level whose line
    break and indent is ``indent``.

    Only non-empty lists, tuples and dicts with str keys are walked here, in
    the stdlib's order, so that row lists deeper down reach :func:`_json_rows`.
    Every other value is the stdlib's own text: it writes no raw line break
    inside a string, so re-indenting its level-0 text places it here.
    """
    import json
    from json.encoder import encode_basestring_ascii

    walked = isinstance(value, (list, tuple)) or (
        isinstance(value, dict) and all(isinstance(key, str) for key in value)
    )
    if not (walked and value):
        out.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", indent))
        return
    if id(value) in markers:
        raise ValueError("Circular reference detected")
    markers.add(id(value))
    inner = indent + "  "
    if isinstance(value, dict):
        out.append("{")
        for i, (key, item) in enumerate(sorted(value.items())):
            out.append(f"{',' if i else ''}{inner}{encode_basestring_ascii(key)}: ")
            _json_value(item, inner, markers, out)
        out.append(indent + "}")
    else:
        rows = _json_rows(value, indent)
        if rows is not None:
            out.append(rows)
        else:
            out.append("[")
            for i, item in enumerate(value):
                out.append(("," if i else "") + inner)
                _json_value(item, inner, markers, out)
            out.append(indent + "]")
    markers.remove(id(value))


def _json_pieces(doc: Any) -> list[str]:
    """``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``, byte for byte,
    as a list of pieces to be written one after another.

    On CPython any ``indent`` sends ``json.dumps`` to its pure-Python
    encoder, one generator step per value. Lists of flat numeric rows go
    instead to the C encoder (:func:`_json_rows`); every other value is
    written by ``json.dumps`` itself (:func:`_json_value`).
    """
    out: list[str] = []
    _json_value(doc, "\n", set(), out)
    out.append("\n")
    return out


def _summary_pieces(
    command: str, cfg: RunConfig, seed: SeedSpec, results: dict[str, Any]
) -> list[str]:
    doc = {
        "tool": "emitternet",
        "version": __version__,
        "command": command,
        "config_hash": cfg.config_hash(),
        "config": cfg.data,
        "seed": {"seed": seed.seed, "stream_index": seed.stream_index},
        "generated_at": _utc_now(),
        "results": results,
    }
    return _json_pieces(doc)


def _csv_comments(cfg: RunConfig, seed: SeedSpec) -> list[str]:
    return [
        f"emitternet {__version__}",
        f"config_hash={cfg.config_hash()}",
        f"seed={seed.seed} stream_index={seed.stream_index}",
    ]


# A command writes nothing: it returns its results (None for ``report``), its files
# by name and its exit code. A file is its text as a list of pieces, or a
# ``(writer, *args)`` tuple that the output stage calls as
# ``writer(path, *args, comments)``, such as ``(write_table, header, columns)``.
_Outcome = tuple[dict[str, Any] | None, dict[str, Any], int]


def _scalar_results(results: dict, prefix: str = "") -> Iterator[tuple[str, Any]]:
    """Scalar results, nested ones under dotted keys; lists are left to the JSON and CSV."""
    for key, value in results.items():
        if isinstance(value, dict):
            yield from _scalar_results(value, f"{prefix}{key}.")
        elif isinstance(value, (int, float, str, bool)) or value is None:
            yield f"{prefix}{key}", value


def _load_summary(path: Path) -> dict[str, Any]:
    """A command summary, refused unless it holds every field ``report`` reads."""
    import json

    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # invalid UTF-8 or JSON, or too deep
        raise SummaryError(f"{path} is not valid JSON: {exc}") from None
    if not (
        isinstance(doc, dict)
        and isinstance(doc.get("command"), str)
        and isinstance(doc.get("results"), dict)
        and isinstance(doc.get("seed"), dict)
        and "seed" in doc["seed"]
        and {"config_hash", "version"} <= doc.keys()
    ):
        raise SummaryError(f"{path} is not an emitternet command summary")
    return doc


def _cmd_report(cfg: RunConfig, seed: SeedSpec, args) -> _Outcome:
    out_dir = _out_dir(cfg)
    summaries = sorted(
        p for p in out_dir.glob("*_summary.json") if p.name != "report_summary.json"
    )
    if not summaries:
        raise SummaryError(f"no command summaries found in {out_dir}")
    sections = {}
    for path in summaries:
        doc = _load_summary(path)
        if doc["command"] in sections:
            raise SummaryError(
                f"{sections[doc['command']]['file']} and {path.name} both hold "
                f"a {doc['command']!r} summary; remove one of them"
            )
        sections[doc["command"]] = {
            "file": path.name,
            "config_hash": doc["config_hash"],
            "seed": doc["seed"],
            "version": doc["version"],
            "results": doc["results"],
        }
    report = {
        "tool": "emitternet",
        "version": __version__,
        "config_hash": cfg.config_hash(),
        "generated_at": _utc_now(),
        "provenance_note": PROVENANCE_NOTE,
        "sections": sections,
    }
    lines = [
        f"emitternet {__version__} run report",
        f"config hash: {cfg.config_hash()}",
        "",
        f"note: {PROVENANCE_NOTE}",
        "",
    ]
    for command, info in sections.items():
        lines.append(f"[{command}] (from {info['file']}, seed {info['seed']['seed']})")
        lines.extend(f"  {key}: {value}" for key, value in _scalar_results(info["results"]))
        lines.append("")
    files = {"report.json": _json_pieces(report), "report.txt": ["\n".join(lines)]}
    return None, files, 0


def _print_error(exc: BaseException, code: int) -> None:
    """The error, its type and the exit code as one line of JSON on stderr."""
    import json

    error = {"error": str(exc), "type": type(exc).__name__, "exit_code": code}
    print(json.dumps(error), file=sys.stderr)


def _write_files(out_dir: Path, files: dict[str, Any], comments: list[str]) -> None:
    """Write ``files`` into ``out_dir``, none of them unless every one is written.

    ``out_dir`` and any missing parents are made here. Each file (with any
    sidecar its writer adds) is written under its own name in a staging
    directory inside ``out_dir``; all are renamed into place only after
    every write has succeeded, and the staging directory is removed either
    way. If a write fails, the directories made here are removed again.
    """
    made = [d for d in (out_dir, *out_dir.parents) if not os.path.lexists(d)]
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_staged(out_dir, files, comments)
    except BaseException:
        for directory in made:  # deepest first; a directory still in use stays
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise


def _write_staged(out_dir: Path, files: dict[str, Any], comments: list[str]) -> None:
    """The writes of :func:`_write_files` into the existing ``out_dir``."""
    import tempfile

    staging = Path(tempfile.mkdtemp(prefix=".emitternet-", dir=out_dir))
    try:
        for name, data in files.items():
            path = staging / name
            if isinstance(data, list):
                with open(path, "w", encoding="utf-8") as out:
                    out.writelines(data)
            else:
                writer, *args = data
                writer(path, *args, comments)
        names = sorted(os.listdir(staging))
        # a rename onto a directory fails, so refuse before the first rename
        for target in (out_dir / name for name in names):
            if target.is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        for name in names:
            os.replace(staging / name, out_dir / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv == ["--version"]:
        # the parser's version action without the parser: the same line, on
        # stderr when there is no stdout, and exit 0 even if the write fails
        try:
            (sys.stdout or sys.stderr).write(VERSION + "\n")
        except (AttributeError, OSError):
            pass
        return 0
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:
        _print_error(exc, 1)
        return 1
    try:
        cfg = _load_config(args)
        seed = _resolve_seed(cfg)
        if args.command == "report":
            command = _cmd_report
        else:
            from . import _commands

            command = _commands._COMMANDS[args.command]
        results, files, code = command(cfg, seed, args)
        # The one output stage: a command that raised has written nothing.
        if results is not None:
            summary = f"{args.command.replace('-', '_')}_summary.json"
            files[summary] = _summary_pieces(args.command, cfg, seed, results)
        _write_files(_out_dir(cfg), files, _csv_comments(cfg, seed))
    except (EmitterNetError, OSError) as exc:
        _print_error(exc, 2)
        return 2
    if code == 3:
        _print_error(EmitterNetError("fit did not converge within the iteration cap"), 3)
    return code


def entrypoint() -> None:
    sys.exit(main())
