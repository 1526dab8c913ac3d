#!/usr/bin/env bash
# Docs-freshness gate for the model and parameter surface:
#  1. the fenced block under "### Model reference" in README.md must be
#     the verbatim output of `hermes_run --list-models`, and the one
#     under "### Configuration reference" that of
#     `hermes_run --list-params`;
#  2. the "Paper figure map" table between the figure-map markers must
#     match what tools/figure_map.sh generates from the bench/*.cc
#     `// figmap:` annotations.
# Run after registering a new model or parameter or adding a bench
# driver (regenerate with `hermes_run --list-models`,
# `hermes_run --list-params` and `tools/figure_map.sh --update`); CI's
# determinism job runs this against the freshly built binary.
#
# Usage: tools/check_model_docs.sh [path/to/hermes_run]
#   (default binary: build/hermes_run relative to the repo root)

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
run_bin="${1:-$repo_root/build/hermes_run}"

actual="$(mktemp)"
expected="$(mktemp)"
trap 'rm -f "$actual" "$expected"' EXIT

# --- 1. the reference blocks -----------------------------------------
# The reference block is the first bare ``` fence after the heading
# (example blocks are fenced as ```sh).
readme_block() {
    python3 - "$repo_root/README.md" "$1" <<'EOF'
import sys

path, heading = sys.argv[1], sys.argv[2]
lines = open(path).read().splitlines(keepends=True)
in_section = False
in_block = capture = found = False
for line in lines:
    stripped = line.rstrip("\n")
    if line.startswith(heading):
        in_section = True
        continue
    if not in_section:
        continue
    if not in_block:
        if stripped.startswith("```"):
            in_block = True
            capture = stripped == "```" and not found
            found = found or capture
        continue
    if stripped == "```":
        if capture:
            break
        in_block = capture = False
        continue
    if capture:
        sys.stdout.write(line)
if not found:
    sys.exit(f"README.md: no reference block under '{heading}'")
EOF
}

check_reference() {
    local heading="$1" flag="$2"
    "$run_bin" "$flag" >"$actual"
    readme_block "$heading" >"$expected"
    if ! diff -u "$expected" "$actual"; then
        echo >&2
        echo "README reference is stale: regenerate the" >&2
        echo "\"$heading\" code block from" >&2
        echo "\`hermes_run $flag\` output." >&2
        exit 1
    fi
}

check_reference "### Model reference" --list-models
check_reference "### Configuration reference" --list-params

# --- 2. the paper figure map -----------------------------------------
"$repo_root/tools/figure_map.sh" >"$actual"

python3 - "$repo_root/README.md" >"$expected" <<'EOF'
import sys

text = open(sys.argv[1]).read()
begin, end = "<!-- figure-map:begin -->", "<!-- figure-map:end -->"
if begin not in text or end not in text:
    sys.exit("README.md: no figure-map markers found")
block = text.split(begin, 1)[1].split(end, 1)[0]
sys.stdout.write(block.strip("\n") + "\n")
EOF

if ! diff -u "$expected" "$actual"; then
    echo >&2
    echo "README paper figure map is stale: run" >&2
    echo "\`tools/figure_map.sh --update\` (the table is generated" >&2
    echo "from the // figmap: lines in bench/*.cc)." >&2
    exit 1
fi

echo "model docs OK (model + configuration references and figure map" \
     "in sync)"
