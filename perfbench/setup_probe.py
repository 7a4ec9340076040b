"""Time one fresh process's set-up: import coopreg, then load the configs.

    python3 perfbench/setup_probe.py SRC_DIR [CONFIG ...]

Prints the elapsed seconds.  Interpreter start-up is not included.
"""

import sys
import time


def main(argv: list[str]) -> float:
    started = time.perf_counter()
    sys.path.insert(0, argv[0])
    import coopreg.cli  # noqa: F401  (the import is part of the set-up)
    from coopreg.config import load_config

    for path in argv[1:]:
        load_config(path)
    return time.perf_counter() - started


if __name__ == "__main__":
    print(repr(main(sys.argv[1:])))
