"""Command-line entry point.

`kolmsim run <config> --out <dir>` executes one experiment and writes its
artifacts; `kolmsim audit <config>` runs only the bound audits.  Exit
codes: 0 ok, 2 config error, 3 audit failure (any false boolean in the
audit payload, named by `experiments.failed_checks`), 4 numerical failure
(a NaN or infinite float in the audit or a table among them).
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

from .errors import ConfigError, KolmsimError
from .experiments import failed_checks, load_config, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_AUDIT = 3
EXIT_NUMERICAL = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kolmsim",
        description="Hermite-Galerkin Kolmogorov-equation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("--out", required=True, help="output directory")
    audit_p = sub.add_parser("audit", help="run only the bound audits")
    audit_p.add_argument("--out", default=None,
                         help="output directory (default: temporary)")
    for p in (run_p, audit_p):
        p.add_argument("config", help="path to the JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="seed override")
    return parser


def _error_record(kind: str, message: str):
    json.dump({"error": kind, "detail": message}, sys.stderr)
    sys.stderr.write("\n")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.command == "audit" and cfg["experiment"] != "audits":
            raise ConfigError("the audit command needs an 'audits' experiment config")
        out_dir = args.out or tempfile.mkdtemp(prefix="kolmsim-audit-")
        audit = run_experiment(cfg, out_dir, seed=args.seed)
        if failures := failed_checks(audit):
            _error_record("audit", "failed checks: " + "; ".join(failures))
            return EXIT_AUDIT
        print(f"ok: artifacts in {out_dir}")
        return EXIT_OK
    except ConfigError as exc:
        _error_record("config", str(exc))
        return EXIT_CONFIG
    except KolmsimError as exc:
        _error_record("numerical", str(exc))
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
