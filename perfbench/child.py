"""One oversmooth CLI invocation, run in a fresh process by run.py.

    python3 perfbench/child.py SIDECAR MODE -- CLI_ARGS...

Imports oversmooth from ./src (the checkout it runs in), runs
``oversmooth.cli.main(CLI_ARGS)`` and writes SIDECAR, a JSON file with
the import time, the monotonic time of the first layer step and of the
end of ``main``.  MODE is one of

- ``run``: the plain invocation;
- ``trace``: traced (spans.py); the sidecar also holds the per-layer
  metrics, the span summary and the per-step cost of each variant;
- ``setup``: a set-up probe that stops at the first layer step.

Exits with the CLI's exit code (0 for a set-up probe).
"""

import json
import os
import statistics
import sys
import time

import spans

# numpy is imported inside functions, after oversmooth, so that
# cli.import_s includes its import.

# The layer probe: the simulate-er200 graph and width, steps per timing.
PROBE_GRAPH = "er:200,0.05"
PROBE_K = 32
PROBE_STEPS = 64
PROBE_REPEATS = 5


def _probe_context(layers, a, width):
    """V_{k+} for graphnormv2, from numpy's eigh instead of the
    package's eigensolver, so the probe times the step alone."""
    import numpy as np
    vals, vecs = np.linalg.eigh(a.data)
    vk = vecs[:, np.argsort(-np.abs(vals), kind="stable")[:width]]
    r = np.ones(a.n) - vk @ (vk.T @ np.ones(a.n))
    return layers.NormContext(
        vkplus=np.concatenate([vk, (r / np.linalg.norm(r))[:, None]], axis=1))


def variant_step_us(pkg) -> dict:
    """Median microseconds per layer step of every variant, without an
    observer, on the simulate-er200 graph (graph seed 0) at k=32."""
    import numpy as np
    graphio, layers = pkg.graphio, pkg.layers
    g = graphio.gen_graph(PROBE_GRAPH, seed=0, largest_cc=True)
    a = graphio.build_operator(g, "sym_normalized")
    x0 = np.random.default_rng(7).normal(size=(g.n, PROBE_K))
    x0 /= np.linalg.norm(x0, axis=0)
    ctx = _probe_context(layers, a, 2)
    out = {}
    for variant in layers.VARIANTS:
        cfg = layers.LayerConfig(variant=variant, norm_context=ctx)
        per_step = []
        for rep in range(PROBE_REPEATS):
            rng = np.random.default_rng(rep)
            start = time.perf_counter()
            log = layers.run_trajectory(a, x0, cfg, PROBE_STEPS, rng)
            elapsed = time.perf_counter() - start
            done = log.abort_step - 1 if log.aborted else PROBE_STEPS
            per_step.append(elapsed / max(done, 1))
        out[f"layers.{variant}_step_us"] = 1e6 * statistics.median(per_step)
    return out


class SetupDone(BaseException):
    """Raised at the first layer step of a set-up probe.  A
    BaseException, so the CLI's error handling lets it through."""


def main() -> int:
    sidecar, mode = sys.argv[1], sys.argv[2]
    trace = mode == "trace"
    argv = sys.argv[sys.argv.index("--") + 1:]
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    start = time.monotonic()
    import oversmooth
    import oversmooth.cli
    import_s = time.monotonic() - start
    if not os.path.abspath(oversmooth.__file__).startswith(src + os.sep):
        print(f"oversmooth imported from {oversmooth.__file__}, not {src}",
              file=sys.stderr)
        return 97

    first_step = []
    tracer = spans.Tracer()
    if trace:
        tracer.install(oversmooth)
    original = oversmooth.layers.run_trajectory

    def run_trajectory(*args, **kwargs):
        if not first_step:
            first_step.append(time.monotonic())
            if mode == "setup":
                raise SetupDone
        return original(*args, **kwargs)
    tracer.rebind(original, run_trajectory)

    try:
        code = oversmooth.cli.main(argv)
    except SetupDone:
        code = 0
    main_end = time.monotonic()
    tracer.uninstall()
    out = {"import_s": import_s, "first_step": first_step[0] if first_step
           else None, "main_end": main_end, "exit_code": code}
    if trace:
        out["layer"] = {**tracer.layer_metrics(), "cli.import_s": import_s,
                        **variant_step_us(oversmooth)}
        out["spans"] = tracer.span_summary()
    with open(sidecar, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
