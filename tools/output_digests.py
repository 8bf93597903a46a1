"""SHA-256 of every output file of the shipped commands, for byte-identity checks.

Run it from the root of a checkout:

    python3 tools/output_digests.py > digests.txt

It runs that checkout's src/ on each command below, in a temporary directory
that holds copies of the configs it reads, and prints one
"sha256  command/file" line per output file, in a fixed order. summary.json
is hashed without its wall_time_s. Two checkouts give the same outputs
exactly when a diff of their printed lines is empty. It takes no options;
the commands inherit the environment, BLAS thread settings included.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = ("configs/beam-pair.yaml", "configs/localization.yaml", "configs/user-sweep.yaml",
           "perfbench/configs/localize.yaml")

# (output directory, CLI arguments); each runs in order, with --out its directory
COMMANDS = (
    ("synthesize-default", ["synthesize"]),
    ("synthesize", ["synthesize", "--config", "configs/beam-pair.yaml"]),
    ("synthesize-seed20", ["synthesize", "--config", "configs/beam-pair.yaml", "--seed", "20"]),
    ("synthesize-full", ["synthesize", "--config", "configs/beam-pair.yaml", "--mode", "full"]),
    ("synthesize-colwise", ["synthesize", "--config", "configs/beam-pair.yaml",
                            "--mode", "colwise"]),
    ("evaluate", ["evaluate", "--config", "configs/beam-pair.yaml",
                  "--schedule", "synthesize/schedule.csv"]),
    ("localize-cold", ["localize", "--config", "perfbench/configs/localize.yaml",
                       "--codebook", "localize-cold/codebook.bin"]),
    ("localize-warm", ["localize", "--config", "perfbench/configs/localize.yaml",
                       "--codebook", "localize-cold/codebook.bin"]),
    ("export", ["export", "--codebook", "localize-cold/codebook.bin"]),
    ("localization", ["localize", "--config", "configs/localization.yaml"]),
    ("sweep-user", ["sweep-user", "--config", "configs/user-sweep.yaml", "--repeats", "2"]),
    ("sweep-bs-full", ["sweep-bs", "--config", "configs/user-sweep.yaml", "--mode", "full"]),
)


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "summary.json":
        summary = json.loads(data)
        summary.pop("wall_time_s")
        data = json.dumps(summary, sort_keys=True, indent=2).encode()
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    root = Path.cwd()
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for config in CONFIGS:
            (work / config).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(root / config, work / config)
        for name, argv in COMMANDS:
            subprocess.run([sys.executable, "-m", "tmems.cli", *argv, "--out", name],
                           cwd=work, env=env, check=True, stdout=subprocess.DEVNULL)
        for name, _ in COMMANDS:
            for path in sorted((work / name).rglob("*")):
                if path.is_file():
                    print(f"{digest(path)}  {path.relative_to(work)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
