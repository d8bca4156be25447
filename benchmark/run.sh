#!/usr/bin/env bash
# Build mmbench in this checkout (first run only) and run
# one workload with it. Arguments go to mmbench unchanged, e.g.
#
#   bash benchmark/run.sh --workload paper_iso_iter --seed 3 \
#        --seconds 10 --trace 0
#
# Its build, scratch files and traces live in .bench_build/.
# Metric lines go to stdout, last of all one JSON result line; build
# output and diagnostics go to stderr.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f CMakeLists.txt || ! -d src ]]; then
    echo "run.sh: no mm source tree (CMakeLists.txt, src/) in $root" >&2
    exit 2
fi

build=.bench_build/mmbench
mkdir -p .bench_build
jobs=$(nproc)
((jobs > 4)) && jobs=4
build_mmbench() {
    { [[ -f $build/CMakeCache.txt ]] ||
        cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release; } &&
        cmake --build "$build" -j "$jobs"
}
if ! build_mmbench >.bench_build/build.log 2>&1; then
    cat .bench_build/build.log >&2
    echo "run.sh: building mmbench failed" >&2
    exit 2
fi

# Provenance the binary cannot see for itself. A checkout that is not a
# git repository is identified by the hash of its sources alone.
if git rev-parse HEAD >/dev/null 2>&1; then
    MMBENCH_GIT_SHA=$(git rev-parse HEAD)
    MMBENCH_GIT_DIRTY=0
    [[ -z $(git status --porcelain -- CMakeLists.txt src benchmark) ]] ||
        MMBENCH_GIT_DIRTY=1
    export MMBENCH_GIT_SHA MMBENCH_GIT_DIRTY
fi
MMBENCH_TREE_HASH=$(find CMakeLists.txt src benchmark -type f -print0 |
    LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -d' ' -f1)
export MMBENCH_TREE_HASH

# The library reads MM_* knobs from the environment; measure defaults.
while read -r var; do
    unset "$var"
done < <(compgen -e | grep '^MM_' || true)

exec "$build/mmbench" "$@"
