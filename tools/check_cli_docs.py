#!/usr/bin/env python3
"""Check that docs/CLI.md documents exactly the flags each tool accepts.

For every hmpt command-line tool, runs `TOOL --help` and compares the
flags its usage text lists with the flags in the first column of the
flag tables (tables whose header's first cell is "Flag") of the tool's
docs/CLI.md section(s). A flag a tool accepts but the reference omits,
or a documented flag the tool no longer has, fails the check. `--help`
and `--version` are global flags every tool takes, so they are left out
of both sides.

A usage-text flag is a `--name` in the option column of a line indented
by at most four spaces (continuation lines of a description are indented
further), so flags a description merely mentions do not count.

Usage: check_cli_docs.py BIN_DIR [ROOT]   (ROOT defaults to the repo
                                           containing this script)

Exit status: 0 when every tool is in sync, 1 otherwise (each difference
is reported as TOOL: undocumented/stale flag).
"""

import os
import re
import subprocess
import sys

# Tool -> the docs/CLI.md "## " sections whose flag tables document it.
SECTIONS = {
    "hmpt_analyze": ["hmpt_analyze"],
    "hmpt_campaign": ["hmpt_campaign", "Fleet dispatch"],
    "hmpt_merge": ["Sharded campaigns and hmpt_merge"],
    "hmpt_report": ["hmpt_report"],
    "hmptd": ["hmptd"],
    "hmpt_submit": ["hmpt_submit"],
}
GLOBAL_FLAGS = {"--help", "--version"}

FLAG = re.compile(r"--[a-z][a-z0-9-]*")
OPTION_LINE = re.compile(r"^ {1,4}(--\S.*)$")
FENCE = re.compile(r"^(```|~~~)")


def help_flags(binary):
    """Flags listed in the option column of `binary --help`."""
    done = subprocess.run(
        [binary, "--help"], capture_output=True, text=True, timeout=30
    )
    if done.returncode != 0:
        raise RuntimeError(f"{binary} --help exited {done.returncode}")
    flags = set()
    for line in (done.stdout + done.stderr).splitlines():
        match = OPTION_LINE.match(line)
        if match:
            option_column = re.split(r" {2,}", match.group(1))[0]
            flags.update(FLAG.findall(option_column))
    return flags - GLOBAL_FLAGS


def sections(path):
    """Map each "## " heading of `path` to its lines (fences skipped)."""
    out = {}
    current = None
    in_fence = False
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if FENCE.match(line.strip()):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            if line.startswith("## "):
                current = line[3:].strip()
                out[current] = []
            elif current is not None:
                out[current].append(line.rstrip("\n"))
    return out


def table_flags(lines):
    """Flags in the first column of the "Flag" tables among `lines`."""
    flags = set()
    in_flag_table = False
    for line in lines:
        if not line.startswith("|"):
            in_flag_table = False
            continue
        first = re.split(r"(?<!\\)\|", line)[1].strip()
        if not in_flag_table:
            in_flag_table = first == "Flag"  # a table's header row
            continue
        flags.update(FLAG.findall(first))
    return flags - GLOBAL_FLAGS


def check(bin_dir, root):
    doc = sections(os.path.join(root, "docs", "CLI.md"))
    problems = []
    for tool, names in SECTIONS.items():
        documented = set()
        for name in names:
            if name not in doc:
                problems.append(f"{tool}: docs/CLI.md has no '## {name}'")
                continue
            documented |= table_flags(doc[name])
        accepted = help_flags(os.path.join(bin_dir, tool))
        for flag in sorted(accepted - documented):
            problems.append(f"{tool}: undocumented flag {flag}")
        for flag in sorted(documented - accepted):
            problems.append(f"{tool}: stale documented flag {flag}")
    return problems


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: check_cli_docs.py BIN_DIR [ROOT]", file=sys.stderr)
        return 1
    bin_dir = os.path.abspath(sys.argv[1])
    root = os.path.abspath(
        sys.argv[2]
        if len(sys.argv) > 2
        else os.path.join(os.path.dirname(__file__), os.pardir)
    )
    problems = check(bin_dir, root)
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} CLI reference mismatch(es)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
