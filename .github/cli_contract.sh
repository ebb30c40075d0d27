#!/usr/bin/env bash
# The installed `sweep` entry point's contract, checked in the directory DIR:
# output names, exit codes and their one stderr line, the publish rules
# (identical reruns, read-only directories, leftovers, 255-byte names),
# --jobs as a validated no-op and, through block_sweeps.sh, each mode over
# several evaluation blocks.
#
#     bash .github/cli_contract.sh "$RUNNER_TEMP"
#
# DIR must exist and should be empty: the checks write only inside it, and
# expect their own first writes there.
set -euo pipefail
dir="$1"
sweep --mode nu --grid 0:1:5 --out "$dir/nu.csv"
test -s "$dir/nu.csv"
test -s "$dir/nu.gnuplot"
sweep --mode swap --bell phi-minus --grid 0:1:5 --out "$dir/sw.csv"
test -s "$dir/sw.csv"
test -s "$dir/sw.gnuplot"
# the plot script takes the place of the suffix Path.suffix reports,
# which "t." lacks, and a trailing "/" is dropped from the CSV path
sweep --mode nu --grid 0:1:5 --out "$dir/t."
test -s "$dir/t."
test -s "$dir/t..gnuplot"
sweep --mode nu --grid 0:1:5 --out "$dir/u.csv/"
test -s "$dir/u.csv"
test -s "$dir/u.gnuplot"
# each mode over three evaluation and render blocks, then a window
# extended into the same file
bash "$(dirname "$0")/block_sweeps.sh" "$dir/blocks.csv"
# an identical rerun of the script's last sweep leaves blocks.csv in place
cp "$dir/blocks.csv" "$dir/blocks-before.csv"
inode=$(stat -c %i "$dir/blocks.csv")
sweep --mode ad-channel --grid 0:200:80001 --out "$dir/blocks.csv"
test "$(stat -c %i "$dir/blocks.csv")" = "$inode"
cmp "$dir/blocks.csv" "$dir/blocks-before.csv"
# an identical rerun creates no file, so it succeeds where the output
# directory is read-only; root writes there anyway, so skip as root
mkdir "$dir/ro"
sweep --mode nu --grid 0:1:5 --out "$dir/ro/nu.csv"
if [ "$(id -u)" -ne 0 ]; then
  inode=$(stat -c %i "$dir/ro/nu.csv")
  chmod a-w "$dir/ro"
  status=0
  sweep --mode nu --grid 0:1:5 --out "$dir/ro/nu.csv" || status=$?
  chmod u+w "$dir/ro"
  test "$status" -eq 0
  test "$(stat -c %i "$dir/ro/nu.csv")" = "$inode"
fi
# an --out that is not valid UTF-8 is an invalid config: one stderr line
status=0
sweep --mode nu --grid 0:1:3 --out "$dir/"$'\xff.csv' 2> "$dir/utf8.err" || status=$?
test "$status" -eq 2
test "$(wc -l < "$dir/utf8.err")" -eq 1
test -z "$(find "$dir" -maxdepth 1 -name $'*\xff*')"
# so is an --out holding a line break, which would put the rest of the
# name into the plot script as gnuplot commands
status=0
sweep --mode nu --grid 0:1:3 --out "$dir/"$'a\nsystem "touch pwned"\n#.csv' 2> "$dir/newline.err" || status=$?
test "$status" -eq 2
test "$(wc -l < "$dir/newline.err")" -eq 1
test -z "$(find "$dir" -maxdepth 1 -name $'*\n*')"
# so is an --out whose file name pathlib reads as empty; it is refused
# before any work, so the empty directory it is run from stays empty
mkdir "$dir/empty"
for out in . /; do
  status=0
  (cd "$dir/empty" && sweep --mode nu --grid 0:1:3 --out "$out") 2> "$dir/empty.err" || status=$?
  test "$status" -eq 2
  test "$(wc -l < "$dir/empty.err")" -eq 1
  test -z "$(ls -A "$dir/empty")"
  test ! -e /.gnuplot
done
leftovers() { find "$dir" -maxdepth 1 \( -name '.nu.*' -o -name '.sw.*' -o -name '.t.*' -o -name '.u.*' -o -name '.blocks.*' -o -name '.bad.*' -o -name '.full.*' \); }
test -z "$(leftovers)"
status=0
sweep --mode nu --grid 0:2:5 --out "$dir/bad.csv" || status=$?
test "$status" -eq 2
test -z "$(leftovers)"
# a success line that cannot be written is an I/O failure, and a
# failure line that cannot be written keeps the failure's own code
status=0
sweep --mode nu --grid 0:1:5 --out "$dir/full.csv" > /dev/full || status=$?
test "$status" -eq 3
test -s "$dir/full.csv"
status=0
sweep --mode nu --grid 0:2:5 --out "$dir/bad.csv" 2> /dev/full || status=$?
test "$status" -eq 2
test -z "$(leftovers)"
status=0
sweep --mode nu --grid 0:1:5 --out "$dir/x.gnuplot" || status=$?
test "$status" -eq 2
test ! -e "$dir/x.gnuplot"
status=0
sweep --mode nu --grid 0:1:5 --out "$dir/missing/x.csv" || status=$?
test "$status" -eq 3
test -z "$(find "$dir" -name '.x.csv.*.tmp')"
# a value that starts with "-" reaches its flag, and argparse's own
# rejections print one stderr line like every other invalid config
status=0
sweep --mode dephasing-channel --g-over-gamma -1e-3 --out "$dir/neg.csv" 2> "$dir/neg.err" || status=$?
test "$status" -eq 2
test "$(wc -l < "$dir/neg.err")" -eq 1
sweep --mode nu --grid -0.0:1:3 --out "$dir/neg0.csv"
test -s "$dir/neg0.csv"
sweep --help > "$dir/help.txt"
grep -q '^usage: sweep' "$dir/help.txt"
# so is a help text that cannot be written
status=0
sweep --help > /dev/full 2> "$dir/help.err" || status=$?
test "$status" -eq 3
test "$(wc -l < "$dir/help.err")" -eq 1
# a config number that no float can hold is refused by its one read,
# with one stderr line naming the field, and nothing is written
printf '{"mode": "nu", "out": "%s", "nu": 1%0400d}' "$dir/huge.csv" 0 > "$dir/huge.json"
status=0
sweep --config "$dir/huge.json" 2> "$dir/huge.err" || status=$?
test "$status" -eq 2
test "$(wc -l < "$dir/huge.err")" -eq 1
grep -q 'nu is too large for a float, got 1.000e+400' "$dir/huge.err"
test -z "$(find "$dir" -maxdepth 1 -name 'huge.*' ! -name huge.json ! -name huge.err)"
# --jobs is validated and ignored: any value of 1 or more writes the
# --jobs 1 bytes, and 0 is an invalid config that writes nothing
sweep --mode swap --bell phi-minus --grid 0:1:40001 --jobs 1 --out "$dir/jobs1.csv"
sweep --mode swap --bell phi-minus --grid 0:1:40001 --jobs 64 --out "$dir/jobs64.csv"
cmp "$dir/jobs1.csv" "$dir/jobs64.csv"
status=0
sweep --mode nu --grid 0:1:5 --jobs 0 --out "$dir/jobs0.csv" 2> "$dir/jobs0.err" || status=$?
test "$status" -eq 2
test "$(wc -l < "$dir/jobs0.err")" -eq 1
test ! -e "$dir/jobs0.csv"
test ! -e "$dir/jobs0.gnuplot"
# a 245-byte CSV name: its temporary and the plot script's would pass
# 255 bytes, so each loses leading characters of the name; the
# directory holds exactly the two outputs after a run and a rerun
mkdir "$dir/long"
long="$dir/long/$(printf 'a%.0s' $(seq 241)).csv"
for run in first identical; do
  sweep --mode nu --grid 0:1:3 --out "$long"
  test "$(ls -A "$dir/long" | wc -l)" -eq 2
  test -s "$long"
  test -s "${long%.csv}.gnuplot"
done
