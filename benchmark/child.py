"""One pipeline run of a workload, in a fresh interpreter.

Usage: python3 benchmark/child.py SPEC_JSON SPAWN_TIME

SPAWN_TIME is the parent's time.monotonic() just before it started this
interpreter, so set-up time covers interpreter start, imports and config
loading.  The spec names the CLI calls to make, whether to trace them, and
where to write the result (and the spans, when traced).
"""

import json
import sys
import time
import traceback


def blas_info():
    """(OpenBLAS config string, live BLAS thread count), or Nones."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                       and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, prefix + "_get_num_threads" + suffix, None)
                get_config = getattr(lib, prefix + "_get_config" + suffix, None)
                if get_threads is not None and get_config is not None:
                    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                    return get_config().decode(), int(get_threads())
    return None, None


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    spawn = float(sys.argv[2])

    from trafficamp import cli
    for path in spec["configs"]:
        cli.load_config(path)

    result = {}
    if spec["trace"]:
        import tracer
        recorder = tracer.Tracer()
        patched = tracer.install(recorder)

    start = time.monotonic()
    result["setup_s"] = start - spawn
    calls = []
    for call in spec["calls"]:
        t0 = time.monotonic()
        code, error = None, None
        try:
            code = cli.main(call["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # reported as a failed call, not a crash
            error = traceback.format_exc()
        calls.append({"label": call["label"], "code": code, "error": error,
                      "seconds": time.monotonic() - t0})
    result["wall_s"] = time.monotonic() - start
    result["calls"] = calls

    if spec["trace"]:
        tracer.uninstall(patched)
        result["restored"] = tracer.all_restored(patched)
        with open(spec["spans_path"], "w") as fh:
            json.dump(recorder.spans, fh)

    import platform

    import numpy
    blas_config, blas_threads = blas_info()
    result["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__, "openblas": blas_config}
    result["blas_threads"] = blas_threads
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
