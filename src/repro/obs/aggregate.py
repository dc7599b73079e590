"""Merge N per-node metric expositions into one node-labelled exposition.

Each node of a cluster exposes its own registry at ``/metrics`` (see
:mod:`repro.obs.ops`); this module is the scrape side::

    python -m repro.obs.aggregate node-0=http://127.0.0.1:9100 \\
                                  node-1=http://127.0.0.1:9101

fetches every endpoint and prints a single Prometheus text exposition in
which every sample carries a ``node="..."`` label, so one dashboard (or
one grep) sees the whole set: ``repro_cluster_epoch{node="node-0"}``
next to ``repro_server_requests_total{node="node-2"}``.  ``# HELP`` /
``# TYPE`` headers are emitted once per metric family (first node to
define one wins).

Also usable as a library: :func:`aggregate_expositions` merges already
fetched ``(node_name, exposition_text)`` pairs — what the in-process
tests and the CI smoke use — and :func:`scrape` fetches one endpoint.
"""

import sys
import urllib.error
import urllib.request

from repro.obs.metrics import parse_exposition

DEFAULT_TIMEOUT = 5.0


def _format_value(value):
    if value != value:                      # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _render_labels(labels):
    return ",".join('%s="%s"' % (key, str(value).replace('"', '\\"'))
                    for key, value in labels)


def aggregate_expositions(named_texts):
    """Merge ``[(node_name, exposition_text), ...]`` into one exposition.

    Every sample gains a leading ``node`` label; HELP/TYPE comments are
    deduplicated per metric family.  Raises
    :class:`~repro.obs.metrics.MetricsError` on unparseable input.
    """
    helps = {}
    types = {}
    samples = []                 # (family, rendered_sample_line)
    for node, text in named_texts:
        parsed = parse_exposition(text)
        for name, help_text in parsed["help"].items():
            helps.setdefault(name, help_text)
        for name, kind in parsed["type"].items():
            types.setdefault(name, kind)
        for name, labels, value in parsed["samples"]:
            family = _family(name, types)
            merged = [("node", node)] + sorted(labels.items())
            samples.append((family, "%s{%s} %s" % (
                name, _render_labels(merged), _format_value(value))))

    lines = []
    seen_families = []
    for family, _line in samples:
        if family not in seen_families:
            seen_families.append(family)
    for family in seen_families:
        if family in helps:
            lines.append("# HELP %s %s" % (family, helps[family]))
        if family in types:
            lines.append("# TYPE %s %s" % (family, types[family]))
        lines.extend(line for fam, line in samples if fam == family)
    return "\n".join(lines) + "\n"


def _family(sample_name, types):
    """Map a histogram's ``_bucket``/``_sum``/``_count`` samples back to
    their family name so they group under one TYPE header."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[:-len(suffix)]
            if types.get(base) == "histogram":
                return base
    return sample_name


def scrape(url, timeout=DEFAULT_TIMEOUT):
    """Fetch one node's ``/metrics`` text (appends the path if the URL
    has none)."""
    if not url.rstrip("/").endswith("/metrics"):
        url = url.rstrip("/") + "/metrics"
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.aggregate",
        description="Scrape N node /metrics endpoints and print one "
                    "node-labelled Prometheus exposition "
                    "(see docs/OBSERVABILITY.md).")
    parser.add_argument(
        "endpoints", nargs="+", metavar="NAME=URL",
        help="node endpoints as name=url (bare urls get node-N names)")
    parser.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT,
                        metavar="S", help="per-scrape timeout")
    parser.add_argument(
        "--skip-unreachable", action="store_true",
        help="warn and continue when a node cannot be scraped "
             "(default: fail)")
    args = parser.parse_args(argv)

    named = []
    for index, spec in enumerate(args.endpoints):
        if "=" in spec and not spec.split("=", 1)[0].startswith("http"):
            name, url = spec.split("=", 1)
        else:
            name, url = "node-%d" % index, spec
        named.append((name, url))

    texts = []
    for name, url in named:
        try:
            texts.append((name, scrape(url, timeout=args.timeout)))
        except (urllib.error.URLError, OSError, ValueError) as exc:
            print("aggregate: cannot scrape %s (%s): %s"
                  % (name, url, exc), file=sys.stderr)
            if not args.skip_unreachable:
                return 1
    if not texts:
        print("aggregate: no node could be scraped", file=sys.stderr)
        return 1
    sys.stdout.write(aggregate_expositions(texts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
