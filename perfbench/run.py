"""Entry point: ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Run from the repository root; it measures the ``repro`` package under
``src/`` and exits 2 when there is none.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {root / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(root), str(root / "src")]
    from perfbench.cli import main

    sys.exit(main())
