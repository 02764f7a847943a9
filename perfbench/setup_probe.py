"""Time set-up in a fresh process: import plus grid, kernel quadrature and
projected initial datum of the reference configuration.

Usage: python3 perfbench/setup_probe.py SRC_DIR INITIAL_DATA

Prints the elapsed seconds, measured from the first statement of this
script, as its only line.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    src, spec = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import augburgers
    from augburgers import cli, grid, initial, kernel

    if not os.path.abspath(augburgers.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"augburgers imported from {augburgers.__file__}, not {src}", file=sys.stderr)
        return 2
    cfg = cli.parse_config("", {"initial_data": spec})
    g = grid.make_grid(cfg.x_left, cfg.x_right, cfg.dx)
    kernel.build(cfg.dx, cfg.theta, kernel.choose_n(cfg.dx, cfg.theta, cfg.tail_tol))
    head, _, rest = cfg.initial_data.partition(":")
    if head == "sines":
        datum = initial.sine_bumps()
    else:
        datum = initial.box_pair(*(float(v) for v in rest.split(",")))
    grid.project_initial(datum, g)
    print(repr(time.perf_counter() - T0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
