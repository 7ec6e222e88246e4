#!/usr/bin/env python3
"""Splices measured tables from a full `ccx exp all` run into EXPERIMENTS.md.

Usage: python3 scripts/fill_experiments.py results/full_run.txt [more dumps...]

where a dump is the stdout of e.g.
`ccx exp all --size full --seed 1 > results/full_run.txt`.

Each `PLACEHOLDER_<ID>` marker in EXPERIMENTS.md is replaced by the
markdown table(s) of section `## <ID>:` from the results dump.
"""

import re
import sys


def sections(path):
    """Maps experiment id -> list of markdown tables in its section."""
    text = open(path).read()
    out = {}
    parts = re.split(r"^## ", text, flags=re.M)
    for part in parts[1:]:
        header, _, body = part.partition("\n")
        exp_id = header.split(":")[0].strip()
        tables = re.findall(r"((?:^\|.*\n)+)", body, flags=re.M)
        out[exp_id] = tables
    return out


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    tables = sections(sys.argv[1])
    if len(sys.argv) > 2:
        tables.update(sections(sys.argv[2]))
    doc = open("EXPERIMENTS.md").read()

    def repl(match):
        exp_id = match.group(1)
        if exp_id not in tables or not tables[exp_id]:
            print(f"warning: no tables for {exp_id}", file=sys.stderr)
            return match.group(0)
        return "\n".join(t.rstrip() for t in tables[exp_id])

    new = re.sub(r"^PLACEHOLDER_(\w+)$", repl, doc, flags=re.M)
    open("EXPERIMENTS.md", "w").write(new)
    remaining = re.findall(r"^PLACEHOLDER_\w+$", new, flags=re.M)
    print(f"filled; remaining placeholders: {remaining}")


if __name__ == "__main__":
    main()
