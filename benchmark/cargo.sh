#!/usr/bin/env bash
# cargo for the benchmark package, offline, against whichever rand, rayon,
# crossbeam, parking_lot and bytes this host has:
#
#   bash benchmark/cargo.sh run --release --quiet -- --workload gen_mem --seed 1 --seconds 14 --trace 0
#   bash benchmark/cargo.sh test
#
# The manifest names the published crates, as the root workspace does. Where
# cargo resolves them without the network (they are in its cache, say after
# `cargo fetch --manifest-path benchmark/Cargo.toml`), they are what is built
# and measured. Where it cannot (a bare checkout on a host with no registry,
# which is how the benchmark's driver runs it), offline/config.toml patches
# them to the stand-ins under offline/. The choice is made from what cargo
# can resolve, never from a setting, and CSB_BENCHMARK_DEPS tells the program
# which it was so every result is stamped with it. The benchmark never
# fetches: it reads and writes only inside its checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"

if [ "$#" -eq 0 ]; then
  echo "usage: bash benchmark/cargo.sh <cargo subcommand> [arguments]" >&2
  exit 2
fi
subcommand="$1"
shift

deps=registry
config=()
if ! cargo metadata --offline --format-version 1 --manifest-path "$manifest" >/dev/null 2>&1; then
  deps=stand-ins
  config=(--config "$here/offline/config.toml")
fi

CSB_BENCHMARK_DEPS="$deps" exec cargo "$subcommand" --offline --manifest-path "$manifest" \
  ${config[@]+"${config[@]}"} "$@"
