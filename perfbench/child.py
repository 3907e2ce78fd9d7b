"""One fresh interpreter of the benchmark: import iqsl2, maybe run a workload.

Usage: python3 perfbench/child.py <root> <mode> [<workload> <run_id>]

``mode`` is ``setup`` (import only), ``warmup`` (import, then the untimed
ROADMAP digests), ``run`` (one untraced workload call) or ``trace`` (one
call with every layer wrapped by tracer.install). The child prints one JSON
object as the last line of its standard output. Only sys, os and time are
imported before iqsl2, so that ``setup_s`` counts every module the package
pulls in. Every child also reports reference ticks (see reference.py): a
burst right after the import, a burst before and after the workload call
and, untraced, single ticks during it.
"""

import os
import sys
import time


def _cli(argv):
    """Run the iqsl2 command in-process; return (exit code, stdout text)."""
    import contextlib
    import io

    import iqsl2.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = iqsl2.cli.main(argv)
    return rc, buf.getvalue()


def _layer_metrics(tracer, found, caches, qint):
    import tracer as tr

    st = tracer.self_times()
    calls = dict(zip(tracer.names, tracer.calls))
    c = tracer.counters
    m = {}
    for layer in tr.LAYERS:
        if layer in found:
            names = [n for n, lay in zip(tracer.names, tracer.layer_of)
                     if lay == layer]
            m[f"{layer}.self_s"] = sum(st[n] for n in names)
            m[f"{layer}.calls"] = sum(calls[n] for n in names)
    for sub in ("coeff.gcd", "coeff.div_exact", "coeff.reduce", "kernel.kmul"):
        if sub in found:
            m[f"{sub}.self_s"] = st[sub]
            m[f"{sub}.calls"] = calls[sub]
    if "coeff.str" in found:
        m["coeff.str.self_s"] = st["coeff.str"]
    if {"coeff.gcd", "coeff.reduce"} <= found:
        m["coeff.gcd.useful_ratio"] = _ratio(c["coeff.gcd.useful"],
                                             c["coeff.gcd.tried"])
    if "coeff.div_exact" in found:
        m["coeff.div_exact.miss_ratio"] = _ratio(c["coeff.div_exact.misses"],
                                                 calls["coeff.div_exact"])
    if "kernel.kmul" in found:
        m["kernel.kmul.term_products"] = c["kernel.kmul.term_products"]
    if "pbw.mono_cache" in caches:
        d = caches["pbw.mono_cache"]
        m["pbw.mono_cache.size"] = len(d)
        m["pbw.mono_cache.hit_ratio"] = _ratio(d.hits, d.hits + d.misses)
    delta_cache = getattr(sys.modules["iqsl2.tensor"], "_DELTA_MONO_CACHE", None)
    if isinstance(delta_cache, dict):
        m["tensor.delta_cache.size"] = len(delta_cache)
    if "idp.closed_cache" in caches:
        d = caches["idp.closed_cache"]
        m["idp.closed_cache.hit_ratio"] = _ratio(d.hits, d.hits + d.misses)
    if hasattr(qint, "cache_info"):
        info = qint.cache_info()
        m["qcomb.qint.hit_ratio"] = _ratio(info.hits, info.hits + info.misses)
    return m, sum(st.values())


def _ratio(part, whole):
    """part / whole, and 0 when nothing was attempted."""
    return part / whole if whole else 0.0


def main(argv):
    root, mode = argv[1], argv[2]
    t0 = time.perf_counter()
    import iqsl2
    import iqsl2.cli
    setup_s = time.perf_counter() - t0

    import json
    import resource
    import statistics

    import reference  # the script's own directory is on sys.path
    import workloads

    src = os.path.join(root, "src", "")
    if not os.path.abspath(iqsl2.__file__).startswith(src):
        sys.exit(f"imported iqsl2 from {iqsl2.__file__}, not from {src}")
    out = {"setup_s": setup_s,
           "setup_tick_s": reference.burst(),
           "backend": iqsl2.KERNEL_BACKEND, "python": sys.version.split()[0]}

    if mode == "warmup":
        out["roadmap"] = {label: workloads.sha256(_cli(cmd)[1])
                          for label, cmd in workloads.ROADMAP_COMMANDS.items()}
    elif mode in ("run", "trace"):
        name, run_id = argv[3], argv[4]
        report = os.path.join(root, ".perfbench_out", f"report-{os.getpid()}.json")
        cmd = [report if a == workloads.REPORT else a
               for a in workloads.WORKLOADS[name]]
        if mode == "trace":
            import tracer as tr

            qint = sys.modules["iqsl2.qcomb"].qint  # the lru_cache object
            tracer = tr.Tracer(run_id)
            found = tr.install(tracer)
            caches = tr.install_cache_counters()
        ticks = [reference.burst()]
        start = time.perf_counter()
        if mode == "trace":  # ticks inside the call would land in its spans
            rc, text = _cli(cmd)
            spent = 0.0
        else:
            with reference.Sampler() as sampler:
                rc, text = _cli(cmd)
            spent = sampler.spent
            ticks += sampler.samples
        out["wall_s"] = time.perf_counter() - start - spent
        ticks.append(reference.burst())
        out["tick_s"] = statistics.harmonic_mean(ticks)
        out["ticks"] = len(ticks)
        out["rc"] = rc
        if workloads.REPORT in workloads.WORKLOADS[name]:
            with open(report, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(report)
            units, failed, digest = workloads.report_digest(text)
        else:
            units, failed, digest = workloads.table_digest(text)
        out.update(units=units, failed_units=failed, sha256=digest)
        if mode == "trace":
            out["layers"], out["self_sum_s"] = _layer_metrics(
                tracer, found, caches, qint)
            out["spans"] = len(tracer.span_name)
            tracer.write(os.path.join(root, ".perfbench_out",
                                      f"spans-{name}.csv.gz"))
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv)
