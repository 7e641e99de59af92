#!/bin/sh
# The command BENCHMARK.json names: build the benchmark from the checkout's
# source, keeping everything the Go toolchain writes inside the checkout, and
# run it with the arguments given. Run it from the repository root.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/chaser-bench" ./bench
exec "$build/chaser-bench" -workdir "$build/work" "$@"
