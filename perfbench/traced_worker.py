"""A distributed worker run under the benchmark's span recorder.

    python3 perfbench/traced_worker.py OUT_DIR worker --queue DIR ...

Installs :mod:`probes`, runs ``python -m repro.experiments`` with the
remaining arguments, and on exit dumps the record to
``OUT_DIR/worker-<pid>.json`` for the spawning process to merge.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path


def main() -> int:
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    sys.path.insert(0, str(here))
    import probes
    from repro.experiments.__main__ import main as cli

    out_dir, argv = sys.argv[1], sys.argv[2:]
    recorder = probes.Recorder()
    probes.install(recorder)
    try:
        return cli(argv)
    finally:
        recorder.stop()
        path = Path(out_dir) / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(recorder.dump()))
        os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main())
