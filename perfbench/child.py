"""Fresh-process probe for the benchmark's set-up time and peak memory.

    python3 perfbench/child.py SCENARIO [OUTDIR]

Times ``import uplinksim`` plus ``parse_config`` of the scenario file in a
new interpreter, so every sample pays the import again.  With OUTDIR it
then runs the whole matrix and writes its CSVs there, and reports the
process's peak resident set.  Prints one JSON object.
"""

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv) -> int:
    text = Path(argv[0]).read_text(encoding="utf-8")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import uplinksim

    cfg = uplinksim.parse_config(text)
    report = {"setup_s": time.perf_counter() - t0}
    if len(argv) > 1:
        from uplinksim import cli

        results, errors = cli.run_matrix(cfg)
        cli.write_outputs(results, cfg, argv[1])
        report["cells"] = len(results) + len(errors)
        report["cells_failed"] = len(errors)
        # Linux reports ru_maxrss in KiB
        report["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
