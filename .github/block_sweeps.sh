#!/usr/bin/env bash
# Sweep each mode over 40001 points, which span three evaluation and render
# blocks, and check each CSV with check_cli_csv.py; sweep acceleration again
# with qubit B tracking qubit A, so that B's channel is not the identity, and
# ad-channel and dephasing-channel again at nu = 0.1 and other rates; then
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
# the damping and dephasing channels at rates other than the defaults, on a
# partially entangled input
sweep --mode ad-channel --nu 0.1 --g-over-gamma 1.5 --grid 0:100:40001 --out "$out"
python "$check" "$out" ad-channel 0:100:40001 --nu 0.1 --g-over-gamma 1.5
sweep --mode dephasing-channel --nu 0.1 --g-over-gamma 5 --grid 0:40:40001 --out "$out"
python "$check" "$out" dephasing-channel 0:40:40001 --nu 0.1 --g-over-gamma 5
# the same spacing over twice the window: the old CSV's first two blocks
# match, so the rerun renders the file a second time
sweep --mode ad-channel --grid 0:100:40001 --out "$out"
sweep --mode ad-channel --grid 0:200:80001 --out "$out"
python "$check" "$out" ad-channel 0:200:80001
