"""Record the stdout digest of every request in cli_catalogue.json.

    PYTHONPATH=src:perfbench python3 perfbench/record_cli_digests.py

Runs each catalogue request once through ``superschrod.cli.main`` and
stores the SHA-256 of its stdout.  A request whose exit code differs from
the catalogue's ``exit_code`` is an error: the catalogue states the
expected verdicts, and only the byte-exact output is recorded.  Re-record
only when a change alters CLI output on purpose.
"""

import hashlib
import json
import sys

import workloads


def main():
    with open(workloads.CATALOGUE) as fh:
        data = json.load(fh)
    for entry in data["requests"]:
        code, stdout = workloads.run_case(dict(entry, workload="cli"))
        if code != entry["exit_code"]:
            sys.exit("%s: exit code %d, catalogue expects %d"
                     % (" ".join(entry["argv"]), code, entry["exit_code"]))
        entry["sha256"] = hashlib.sha256(stdout).hexdigest()
    lines = [json.dumps(entry, sort_keys=True) for entry in data["requests"]]
    with open(workloads.CATALOGUE, "w") as fh:
        fh.write('{"requests": [\n' + ",\n".join(lines) + "\n]}\n")


if __name__ == "__main__":
    main()
