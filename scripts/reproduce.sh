#!/usr/bin/env bash
# Regenerate every figure, table, ablation and extension of the paper's
# evaluation. Tables print to stdout; CSVs land in results/.
set -euo pipefail
cd "$(dirname "$0")/.."

# Gate first: nothing below is worth trusting if the build or tests are red.
./scripts/ci.sh

BINS=(
  table1_raw_networks
  fig5_pipeline_trace
  fig6_sci_to_myri
  fig7_myri_to_sci
  fig8_conflict_trace
  table2_pipeline_period
  table3_peak_vs_bus
  ablation_forwarding_strategies
  ablation_zero_copy
  ablation_pipeline_depth
  ablation_flow_control
  ablation_switch_overhead
  ablation_hol_blocking
  ablation_batching
  ext_copy_matrix
  ext_bidirectional
  ext_gateway_chain
)

cargo build --release -p mad-bench --bins
for b in "${BINS[@]}"; do
  echo
  echo "################ $b ################"
  cargo run --release -q -p mad-bench --bin "$b"
done
