#!/usr/bin/env bash
# Keeps documentation references from drifting as files move.
#
# Fails if
#   - a docs/ file references a repo path that no longer exists. A
#     "reference" is any token that looks like a repo-relative path into
#     one of the known top-level directories with a known extension;
#   - a comment in src/, tests/ or bench/ cites a Markdown file that does
#     not exist (paths resolve from the repo root, so `DESIGN.md` alone
#     means a root-level file), or cites an anchor the file lacks. An
#     anchor is `§N[.M]` or `deviation N` right after the path, and the
#     file must have a Markdown heading that starts with it
#     (`## §6.2 ...`, `### Deviation 1: ...`).
#
# Usage: scripts/check_docs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for doc in docs/*.md; do
  refs=$(grep -oE '(src|tests|bench|examples|scripts|docs)/[A-Za-z0-9_./-]+\.(h|cc|cpp|md|sh|yml)' "$doc" | sort -u || true)
  for ref in $refs; do
    if [ ! -e "$ref" ]; then
      echo "ERROR: $doc references missing file: $ref"
      status=1
    fi
  done
done

# file:line:<cited doc>[ <anchor>] for every Markdown citation in a comment.
citations=$(find src tests bench -type f \( -name '*.h' -o -name '*.cc' -o -name '*.cpp' \) -print0 |
  xargs -0 awk '{
      i = index($0, "//")
      if (i == 0) next
      text = substr($0, i + 2)
      while (match(text, /[A-Za-z0-9_.\/-]*[A-Za-z0-9_-]\.md( (§[0-9]+(\.[0-9]+)*|deviation [0-9]+))?/)) {
        print FILENAME ":" FNR ":" substr(text, RSTART, RLENGTH)
        text = substr(text, RSTART + RLENGTH)
      }
    }')

while IFS= read -r cite; do
  [ -n "$cite" ] || continue
  where=${cite%:*}
  target=${cite##*:}
  path=${target%% *}
  anchor=""
  [ "$path" != "$target" ] && anchor=${target#* }
  if [ ! -f "$path" ]; then
    echo "ERROR: $where cites missing doc: $path"
    status=1
    continue
  fi
  if [ -n "$anchor" ]; then
    number=${anchor##* }
    if [[ $anchor == §* ]]; then
      heading="^#+ ${anchor//./\\.}( |$)"
    else
      heading="^#+ [Dd]eviation ${number}([^0-9]|$)"
    fi
    if ! grep -qE "$heading" "$path"; then
      echo "ERROR: $where cites $path $anchor, which has no such heading"
      status=1
    fi
  fi
done <<< "$citations"

if [ "$status" -eq 0 ]; then
  echo "docs OK: every referenced file and cited anchor exists"
fi
exit $status
