#!/usr/bin/env bash
# Counts non-blank, non-comment lines of C++ sources (.h and .cc), one row
# per directory plus a total. A line counts unless it is empty or starts
# with `//` after optional whitespace (the rule
# `grep -vhE '^\s*$|^\s*//'`). Usage:
#
#   scripts/loc.sh [paths...]
#
# Each path is a directory (its .h/.cc files, not recursive) or a single
# file. With no paths it counts the admission path: src/coord, src/place
# (the ledger and placement half of it), src/msu and src/net/message.{h,cc}.
set -euo pipefail

cd "$(dirname "$0")/.."
if [[ $# -eq 0 ]]; then
  set -- src/coord src/place src/msu src/net/message.h src/net/message.cc
fi

count() {
  if [[ $# -eq 0 ]]; then
    echo 0
    return
  fi
  { grep -vhE '^\s*$|^\s*//' "$@" || true; } | wc -l
}

# Files grouped by directory, in first-seen order.
declare -A files_in=()
dirs=()
for path in "$@"; do
  if [[ -d "${path}" ]]; then
    dir="${path%/}"
    found=("${dir}"/*.h "${dir}"/*.cc)
  elif [[ -f "${path}" ]]; then
    dir="$(dirname "${path}")"
    found=("${path}")
  else
    echo "loc.sh: no such file or directory: ${path}" >&2
    exit 2
  fi
  if [[ -z "${files_in[${dir}]+set}" ]]; then
    dirs+=("${dir}")
    files_in["${dir}"]=""
  fi
  for file in "${found[@]}"; do
    [[ -f "${file}" ]] && files_in["${dir}"]+="${file}"$'\n'
  done
done

all=()
for dir in "${dirs[@]}"; do
  mapfile -t listed < <(printf '%s' "${files_in[${dir}]}" | sort -u)
  printf '%-24s %7d\n' "${dir}" "$(count "${listed[@]}")"
  all+=("${listed[@]}")
done
printf '%-24s %7d\n' total "$(count "${all[@]}")"
