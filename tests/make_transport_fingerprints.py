"""Regenerate tests/data/transport_fingerprints.json.

Run after an *intentional* change to the transport or its
instrumentation::

    PYTHONPATH=src python tests/make_transport_fingerprints.py
"""

import json
from pathlib import Path

from test_transport_identity import FINGERPRINTS, compute_fingerprints


def main() -> None:
    FINGERPRINTS.parent.mkdir(parents=True, exist_ok=True)
    digests = compute_fingerprints()
    FINGERPRINTS.write_text(json.dumps(digests, indent=1, sort_keys=True)
                            + "\n")
    print(f"wrote {FINGERPRINTS} ({len(digests)} scenarios)")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    main()
