#!/usr/bin/env bash
# Doc link + drift check (the CI docs job; runnable locally).
#
#   1. Every relative markdown link in README.md and docs/*.md must
#      resolve to an existing file.
#   2. Every bench harness (bench/fig*.cpp, bench/abl*.cpp) must be
#      documented in docs/BENCHMARKS.md.
#   3. Every fig*/abl* bench name mentioned in README.md or docs/*.md
#      must exist as bench/<name>.cpp (no docs for deleted benches).
#   4. No raw std concurrency primitive outside
#      src/common/thread_annotations.hpp: everything else must use the
#      annotated wrappers, or clang's thread safety analysis (and the
#      lock-order linter) cannot see the acquisition.
#   5. No new raw integer replication parameter in the replicated
#      layers: replication is keyed by placement::ReplicationSpec
#      (factor + spread policy), so a bare "std::size_t replication"
#      parameter reintroduces the pre-topology API. Sink payloads that
#      report an observed (clamped) count carry a "raw-k-ok" marker.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- 1. relative markdown links -------------------------------------
for doc in README.md docs/*.md; do
  dir=$(dirname "$doc")
  # ](target) links, minus external URLs and pure anchors.
  while IFS= read -r target; do
    [ -z "$target" ] && continue
    if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
      echo "BROKEN LINK: $doc -> $target"
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" \
             | sed -E 's/^\]\(//; s/\)$//; s/#.*$//' \
             | grep -vE '^https?://' || true)
done

# --- 2. every bench harness is documented ---------------------------
for src in bench/fig*.cpp bench/abl*.cpp; do
  name=$(basename "$src" .cpp)
  if ! grep -q "$name" docs/BENCHMARKS.md; then
    echo "UNDOCUMENTED BENCH: $name missing from docs/BENCHMARKS.md"
    fail=1
  fi
done

# --- 3. every documented bench name exists --------------------------
while IFS= read -r name; do
  if [ ! -e "bench/$name.cpp" ]; then
    echo "STALE DOC REFERENCE: $name has no bench/$name.cpp"
    fail=1
  fi
done < <(grep -ohE '\b(fig|abl)[0-9]+_[a-z0-9_]+' README.md docs/*.md \
           | sort -u)

# --- 4. raw std primitives stay behind the annotated wrappers -------
while IFS= read -r hit; do
  echo "RAW STD PRIMITIVE: $hit"
  echo "  (use the annotated wrappers in common/thread_annotations.hpp)"
  fail=1
done < <(grep -rnE \
           'std::(mutex|shared_mutex|condition_variable|lock_guard|unique_lock|shared_lock|scoped_lock)\b' \
           src --include='*.hpp' --include='*.cpp' \
           | grep -v '^src/common/thread_annotations.hpp:' || true)

# --- 5. replication stays keyed by ReplicationSpec ------------------
while IFS= read -r hit; do
  echo "RAW REPLICATION FACTOR: $hit"
  echo "  (take a placement::ReplicationSpec, or mark an observed-count"
  echo "   sink payload with a raw-k-ok comment)"
  fail=1
done < <(grep -rnE \
           'std::size_t (replication|replicas|replication_factor)\b' \
           src/kv src/sim src/cluster --include='*.hpp' \
           | grep -v 'raw-k-ok' || true)

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED"
  exit 1
fi
echo "check_docs: ok"
