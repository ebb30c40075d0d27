#!/usr/bin/env bash
# Sweep each mode over 40001 points, which span three evaluation and render
# blocks, and check each CSV with check_cli_csv.py; sweep acceleration again
# with qubit B tracking qubit A, so that B's channel is not the identity; then
# sweep ad-channel over twice the window at the same spacing into the same
# file and check it again.
#
#     bash .github/block_sweeps.sh "$RUNNER_TEMP/blocks.csv"
#
# Every sweep writes the one CSV path given; the last is
# `sweep --mode ad-channel --grid 0:200:80001`.
set -euo pipefail
out="$1"
check="$(dirname "$0")/check_cli_csv.py"
for sweep in nu:0:1 dephasing-channel:0:40 ad-channel:0:100 swap:0:1 acceleration:0:0.7853981633974483; do
  IFS=: read -r mode start stop <<< "$sweep"
  sweep --mode "$mode" --grid "$start:$stop:40001" --out "$out"
  python "$check" "$out" "$mode" "$start:$stop:40001"
done
sweep --mode acceleration --rb track --grid 0:0.7853981633974483:40001 --out "$out"
python "$check" "$out" acceleration 0:0.7853981633974483:40001 track
# the same spacing over twice the window: the old CSV's first two blocks
# match, so the rerun renders the file a second time
sweep --mode ad-channel --grid 0:100:40001 --out "$out"
sweep --mode ad-channel --grid 0:200:80001 --out "$out"
python "$check" "$out" ad-channel 0:200:80001
