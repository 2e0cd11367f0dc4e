"""Execute run specs directly through ``repro.runs.execute`` (no service).

Run as a program process by the benchmark::

    python perfbench/direct.py SPECS.json OUT.json [--cache DIR]

``SPECS.json`` is a JSON list of spec documents; ``OUT.json`` receives
one ``{"run_id", "payload"}`` object per spec, in order.  With
``--cache`` every result is also stored in that result cache, which is
how the benchmark pre-fills the cache the service's cache-hit requests
read.
"""

import argparse
import json


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("specs")
    parser.add_argument("out")
    parser.add_argument("--cache", default=None)
    args = parser.parse_args()

    from repro.runs import execute
    from repro.runs.spec import spec_from_jsonable

    with open(args.specs, encoding="utf-8") as handle:
        documents = json.load(handle)
    results = []
    for document in documents:
        result = execute(spec_from_jsonable(document), cache=args.cache)
        results.append({"run_id": result.run_id, "payload": result.payload})
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(results, handle, sort_keys=True)


if __name__ == "__main__":
    main()
