"""Run one ``rayleigh`` CLI call in this process, with a span around every
call into a public function of the package's modules.

Usage: python trace_call.py FD ARG...

The package is imported inside an ``import`` span, then every public
function and public method of ``cli``, ``rayleigh_core``, ``exact_algebra``,
``zeta`` and ``bessel_numeric`` is replaced, in its own module and in every
module that imported it by name, by a wrapper that records a span. Then
``cli.main(ARG...)`` runs as the untraced ``python -m rayleigh_sums ARG...``
would. Spans stay in memory and are written once, as JSON, to the inherited
file descriptor FD just before the interpreter exits with main's code.

A span is [name, layer, start_ns, end_ns, parent], with parent the index of
the enclosing span or -1. Times come from CLOCK_MONOTONIC, the clock the
parent process uses for its own span around this whole process.
"""

import functools
import os
import sys
import time
import types

_clock = time.monotonic_ns
LAYERS = ("cli", "rayleigh_core", "exact_algebra", "zeta", "bessel_numeric")

spans: list[list] = []
_stack = [-1]


def _open(name: str, layer: str) -> int:
    i = len(spans)
    spans.append([name, layer, _clock(), 0, _stack[-1]])
    _stack.append(i)
    return i


def _close(i: int) -> None:
    _stack.pop()
    spans[i][3] = _clock()


def _traced(fn, name: str, layer: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = _open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            _close(i)

    return wrapper


def _instrument() -> None:
    replaced: dict = {}
    for layer in LAYERS:
        mod = sys.modules[f"rayleigh_sums.{layer}"]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                replaced[obj] = _traced(obj, f"{layer}.{name}", layer)
            elif isinstance(obj, type):
                for attr, val in list(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    label = f"{layer}.{name}.{attr}"
                    if isinstance(val, types.FunctionType):
                        setattr(obj, attr, _traced(val, label, layer))
                    elif isinstance(val, classmethod):
                        setattr(obj, attr, classmethod(_traced(val.__func__, label, layer)))
    for modname, mod in list(sys.modules.items()):
        if modname == "rayleigh_sums" or modname.startswith("rayleigh_sums."):
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in replaced:
                    setattr(mod, name, replaced[obj])


def main() -> int:
    fd = int(sys.argv[1])
    i = _open("import rayleigh_sums", "import")
    import rayleigh_sums  # noqa: F401
    import rayleigh_sums.cli as cli
    _close(i)
    _instrument()
    try:
        return cli.main(sys.argv[2:])
    finally:
        sys.stdout.flush()
        import json  # already loaded by cli, so its import time stays in the import span

        data = json.dumps(spans, separators=(",", ":")).encode()
        with os.fdopen(fd, "wb") as out:
            out.write(data)


if __name__ == "__main__":
    sys.exit(main())
