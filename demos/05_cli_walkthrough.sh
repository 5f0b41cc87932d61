#!/usr/bin/env bash
# End-to-end experiment pipeline through the command-line runner:
# dataset caches, a mini noise sweep over two objectives and two seeds,
# aggregation across seeds, plot-ready CSVs, and the built-in check suite.
#
# Writes everything under ./demo_out (about 1.4 MB); short epochs keep the
# whole walkthrough to a few seconds (2.5 s on a 2-vCPU Xeon VM).
set -euo pipefail

export NLA_OUT_DIR=demo_out

echo "== 1. generate dataset caches (clean + 20% noise, two seeds) =="
nla generate --noise 0,0.2 --seeds 1..2

echo
echo "== 2. train one cell explicitly =="
nla train --noise 0.2 --mode nla --seed 1 --epochs 10

echo
echo "== 3. sweep the full grid (reuses the completed cell) =="
nla sweep --noise 0,0.2 --mode ce,nla --seeds 1..2 --epochs 10 --workers 2

echo
echo "== 4. emit plot-ready CSVs =="
nla plotdata

echo
echo "== 5. built-in verification =="
nla check

echo
echo "== artifacts =="
find demo_out -type f | sort
echo
echo "summary.csv:"
cat demo_out/summary.csv
