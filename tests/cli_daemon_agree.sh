#!/bin/sh
# dft_tool and the serve daemon run one implementation of each job
# (src/jobs), so the same job must give the same answer through both front
# ends. Each check runs a dft_tool mode and the serve request with the
# CLI's defaults spelled out, then compares every field both of them print.
#
# usage: cli_daemon_agree.sh <path to dft_tool>
tool=$1
fail=0

# One request (the fields after "id") through the daemon; prints its answer.
ask() {
  printf '{"schema":"dft-serve-request","version":1,"id":"a",%s}\n' "$1" |
    "$tool" serve 2>/dev/null
}
# The value of "key" in a one-line answer, quotes stripped.
field() {
  printf '%s\n' "$1" | sed -n "s/.*\"$2\":\"\{0,1\}\([^\",}]*\).*/\1/p"
}
# First capture group of a sed pattern over the CLI's text output.
grab() {
  printf '%s\n' "$1" | sed -n "s/$2/\1/p"
}
same() {
  if [ -z "$2" ] || [ "$2" != "$3" ]; then
    echo "$1: dft_tool gives '$2', serve gives '$3'"
    fail=1
  fi
}

# bist: dft_tool's fixed LFSR seed 0x5eed is the daemon's seed 0.
cli=$("$tool" bist adder4 --patterns 64)
srv=$(ask '"op":"bist","circuit":"adder4","options":{"patterns":64,"seed":0}')
same "bist signature" "$(grab "$cli" '.*signature \([0-9a-f]*\) .*')" \
  "$(field "$srv" signature)"
same "bist faults" "$(grab "$cli" '^\([0-9]*\) faults:.*')" \
  "$(field "$srv" faults)"
same "bist detected" "$(grab "$cli" '.*(\([0-9]*\) detected).*')" \
  "$(field "$srv" detected)"

cli=$("$tool" sta sn74181)
srv=$(ask '"op":"sta","circuit":"sn74181"')
same "sta gates" "$(grab "$cli" '^\([0-9]*\) gates:.*')" "$(field "$srv" gates)"
same "sta constants" "$(grab "$cli" '.* \([0-9]*\) constant line.*')" \
  "$(field "$srv" constants)"
same "sta unobservable" "$(grab "$cli" '.* \([0-9]*\) unobservable gate.*')" \
  "$(field "$srv" unobservable)"
same "sta faults" "$(grab "$cli" '^\([0-9]*\) collapsed faults.*')" \
  "$(field "$srv" faults)"
same "sta untestable" "$(grab "$cli" '.* \([0-9]*\) statically untestable.*')" \
  "$(field "$srv" untestable)"

# atpg: dft_tool's backtrack limit is 100000; its vectors are printed
# indented, one per line.
cli=$("$tool" atpg c17)
srv=$(ask '"op":"atpg","circuit":"c17","options":{"backtrack_limit":100000,"include_tests":true}')
same "atpg faults" "$(grab "$cli" '^\([0-9]*\) faults:.*')" \
  "$(field "$srv" faults)"
same "atpg tests" "$(grab "$cli" '.* \([0-9]*\) tests,.*')" \
  "$(field "$srv" tests)"
same "atpg coverage" "$(grab "$cli" '.*: coverage \([0-9.]*\)%.*')" \
  "$(printf '%.2f' "$(field "$srv" coverage_pct)")"
same "atpg vectors" "$(grab "$cli" '^  \([01X]*\)$' | tr '\n' ' ')" \
  "$(printf '%s\n' "$srv" | sed -n 's/.*"vectors":\[\([^]]*\)\].*/\1/p' |
     tr -d '"' | tr ',' '\n' | tr '\n' ' ')"

exit $fail
