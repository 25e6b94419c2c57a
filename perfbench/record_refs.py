"""Record the reference outputs the oracles compare against.

    python3 perfbench/record_refs.py

Runs every argv the build-hat, render and verify workloads can draw (full
and smoke sizes) plus the render probe, through the same in-process path
the worker times, and writes perfbench/refs.json.  Run it only at a commit
whose outputs are known to be right: the benchmark then rejects any later
output that differs.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import run
import workloads
import worker


def main() -> int:
    os.chdir(run.ROOT)
    os.makedirs(run.OUT_DIR, exist_ok=True)
    cli = worker._import_cli()
    refs = {"recorded_at": run._commit(), "outputs": {}, "verify": {}}
    for smoke in (True, False):
        for name in ("build-hat", "render", "verify"):
            for argv in workloads.all_argvs(name, smoke):
                op = worker.run_op(cli, argv, None)
                if op["rc"] != 0 or op["error"]:
                    raise SystemExit(f"{argv} failed: {op['error'] or op['stderr']}")
                print(f"{op['wall_s']:7.2f} s  {' '.join(argv)}", file=sys.stderr)
                if name == "verify":
                    refs["verify"][argv[2]] = workloads.verify_items(op["stdout"], "text")
                elif name == "render":
                    refs["outputs"][workloads.key(argv)] = op["svg_sha256"]
                else:
                    refs["outputs"][workloads.key(argv)] = workloads.sha256(
                        op["stdout"].encode("utf-8"))
    from hatfam import render, substitution, supervectors
    tile = cli.tile_from_config(cli.load_text("tile.cfg"))
    layout = cli.layout_from_config(cli.load_text("layout.cfg"), tile)
    hp = supervectors.hat_params()
    for gen in (3, 5):
        svg = render.render_supertile(substitution.build("hat", gen, hp, layout),
                                      hp, render.RenderOptions(), tile)
        refs["outputs"][f"probe render hat {gen}"] = hashlib.sha256(
            svg.encode("utf-8")).hexdigest()
    workloads.REFS_PATH.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
