"""The benchmark's workloads and the digests that gate their output.

Each workload is one ``iqsl2`` command line, run in-process through
``iqsl2.cli.main`` so that the ``cli`` layer is measured too; the commands
call exactly ``run_suite(...)`` or ``emit_table(...)`` with the arguments in
the comments. The program's inputs are fixed exact grids; nothing here
depends on the benchmark's seed.
"""

import hashlib
import json

REPORT = "{report}"  # replaced by the report path of one child

WORKLOADS = {
    # run_suite("mult-even", 16, "specialized"): 251 checks
    "mult-verify": ["verify", "mult-even", "--max", "16",
                    "--varsigma", "q-inverse", "--json", REPORT],
    # run_suite("comult-odd", 10, "generic"): 11 checks
    "comult-verify": ["verify", "comult-odd", "--max", "10", "--json", REPORT],
    # emit_table("odd", 24, "csv"): 939 rows
    "table-emit": ["table", "--family", "odd", "--max", "24",
                   "--format", "csv"],
    # run_suite("qidentities") at its fixed grids: 19,716 checks
    "laurent-identities": ["verify", "qidentities", "--json", REPORT],
}

# Checked once per invocation, untimed: the output digests that any change
# to the arithmetic must leave unchanged.
ROADMAP_COMMANDS = {
    f"{cmd}-{fam}{'-' + form if form else ''}": argv
    for fam in ("ev", "odd")
    for cmd, form, argv in (
        ("table14", None, ["table", "--family", fam, "--max", "14"]),
        ("comult5", "theorem", ["expand", "comult", "--family", fam,
                                "--n", "5", "--form", "theorem"]),
        ("comult5", "direct", ["expand", "comult", "--family", fam,
                               "--n", "5", "--form", "direct"]),
    )
}


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digest(report_text):
    """(checks, failed checks, sha256) of a JSON report, wall time removed."""
    report = json.loads(report_text)
    report.pop("wall_time_s", None)
    checks = report.get("checks", [])
    failed = sum(1 for c in checks if not c.get("pass"))
    canon = json.dumps(report, sort_keys=True, ensure_ascii=False,
                       separators=(",", ":"))
    return len(checks), failed, sha256(canon)


def table_digest(text):
    """(rows, 0, sha256) of a CSV table; the header line is not a row."""
    return max(0, text.count("\n") - 1), 0, sha256(text)
