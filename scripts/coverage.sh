#!/usr/bin/env bash
# Coverage gate for the secure-compute core: runs the secureml + mpcsim + mpc
# test suites with statement coverage and fails if the combined figure
# drops below the floor. The floor is deliberately below the measured
# value (90.1% at the time of writing) so routine refactors don't
# bounce, while a change that lands a meaningfully untested subsystem
# does.
#
# Usage: scripts/coverage.sh [profile-out]
#   profile-out   where to write the merged coverprofile
#                 (default coverage.out; CI uploads it as an artifact)
set -euo pipefail
cd "$(dirname "$0")/.."

FLOOR=80.0
OUT="${1:-coverage.out}"

go test -coverprofile="$OUT" -covermode=atomic ./internal/secureml/ ./internal/mpcsim/ ./internal/mpc/

total="$(go tool cover -func="$OUT" | awk '/^total:/ {sub(/%/, "", $NF); print $NF}')"
echo "combined secureml+mpcsim+mpc statement coverage: ${total}% (floor ${FLOOR}%)"
awk -v t="$total" -v f="$FLOOR" 'BEGIN { exit !(t+0 >= f+0) }' || {
  echo "coverage ${total}% fell below the ${FLOOR}% floor" >&2
  exit 1
}
