# Developer entry points. `make check` is what CI should run.

GO ?= go

.PHONY: build fmt-check vet test race bench bench-smoke obs-demo fleet-smoke trace-demo apicheck apiupdate hotpath-lint bench-test fuzz-smoke check

build:
	$(GO) build ./...

# Every Go file is gofmt-clean (the bench module included).
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
	  echo "fmt-check: gofmt would reformat:"; echo "$$out"; exit 1; \
	fi; echo "fmt-check: gofmt-clean"

# The benchmark is its own module (bench/go.mod), so the root `go vet
# ./...` never reaches it.
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet .

test:
	$(GO) test ./...

# Concurrency-heavy packages must stay clean under the race detector: the
# serving stack runs concurrent compile->simulate round trips, the core's
# checkpoint request crosses goroutines, and the program cache's LRU, the
# trace ring, wire's pooled decoders, bodies and plan cache, and the
# serving shell's drain gate are shared by every request.
race:
	$(GO) test -race ./internal/machine/... ./internal/core/... ./internal/server/... ./internal/pool/... ./internal/obs/... ./internal/gateway/... ./internal/migrate/... ./internal/progcache/... ./internal/dtrace/... ./internal/wire/... ./internal/shell/... ./client/...

bench:
	$(GO) test -bench . -benchtime 10x -run '^$$' ./...

# Run every go test benchmark once so a benchmark that can no longer run
# (a b.Fatal on a peeled gang lane, a renamed entry point) fails the check.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Boot ascd, push three jobs through it, and print the Prometheus scrape:
# the fastest way to see the simulation-depth metrics move.
obs-demo:
	$(GO) build -o /tmp/ascd-demo ./cmd/ascd
	@/tmp/ascd-demo -addr 127.0.0.1:18642 -log-level warn & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	for i in 1 2 3; do \
	  until curl -sf http://127.0.0.1:18642/healthz >/dev/null; do sleep 0.1; done; \
	  curl -s http://127.0.0.1:18642/v1/run -d '{"ascl": "parallel v = pread(0); write(0, sumval(v));", "config": {"pes": 4, "width": 32}, "localMem": [[1],[2],[3],[4]], "dumpScalar": 1}' >/dev/null; \
	done; \
	echo "--- GET /metrics ---"; \
	curl -s http://127.0.0.1:18642/metrics

# Distributed-tier smoke: 1 ascgw + 2 ascd on loopback, one traced batch
# whose stitched trace must carry spans from both tiers, then mixed
# run/batch traffic through the gateway with one backend killed
# mid-stream. Asserts no transport errors and no non-shed failures reach
# the client — only successes or 429/503 with Retry-After — and that the
# fleet /metrics merge stays well-formed. See scripts/fleet_smoke.sh.
fleet-smoke:
	sh scripts/fleet_smoke.sh

# Distributed-tracing demo: boot a loopback fleet, run one traced batch,
# and pretty-print the stitched fleet-wide waterfall plus the exemplars
# that reference it. See scripts/trace_demo.sh and docs/OBSERVABILITY.md.
trace-demo:
	sh scripts/trace_demo.sh

# API surface guard: the exported surface of the public packages (repro
# and repro/client), as rendered by `go doc -all`, must match the golden
# files under docs/api/. A diff here means the v1 contract moved — see
# docs/API.md. After an intentional, additive change, refresh the goldens
# with `make apiupdate` and include them in the same commit.
apicheck:
	@$(GO) doc -all . > /tmp/asc-apicheck-repro.txt
	@$(GO) doc -all ./client > /tmp/asc-apicheck-client.txt
	@diff -u docs/api/repro.txt /tmp/asc-apicheck-repro.txt || \
	  { echo "apicheck: package repro surface drifted; run 'make apiupdate' if intentional"; exit 1; }
	@diff -u docs/api/client.txt /tmp/asc-apicheck-client.txt || \
	  { echo "apicheck: package repro/client surface drifted; run 'make apiupdate' if intentional"; exit 1; }
	@dep=$$(grep -c 'Deprecated:' /tmp/asc-apicheck-client.txt); \
	if [ "$$dep" -gt 2 ]; then \
	  echo "apicheck: $$dep Deprecated markers in repro/client; the deprecated surface is frozen at 2 (Client.BaseURL, Client.HTTPClient) — extend the live API instead"; exit 1; \
	fi
	@echo "apicheck: exported API matches docs/api goldens"

apiupdate:
	@mkdir -p docs/api
	$(GO) doc -all . > docs/api/repro.txt
	$(GO) doc -all ./client > docs/api/client.txt

# Decode-plane guard: the per-cycle paths must consume pre-decoded
# micro-ops only. An `.Info()` table lookup or a scalarALUOp/parallelALUOp
# translation reappearing in these files means someone reintroduced
# per-exec decode work that DecodeProgram already paid for once.
# internal/machine/ref.go (the retained reference interpreter) and the
# Inst-based Timeline renderer are deliberately outside the lint set.
# A listed file that no longer exists fails the lint (grep exits 2), so
# a rename or deletion cannot silently drop a file from the set.
HOTPATH_FILES = internal/machine/machine.go \
	internal/cu/cu.go internal/pipeline/pipeline.go \
	internal/pipeline/scoreboard.go internal/core/core.go \
	internal/core/engine.go internal/core/gang.go \
	internal/core/block.go internal/machine/gang.go \
	internal/isa/blocks.go internal/machine/kernels.go

hotpath-lint:
	@grep -nE '\.Info\(\)|scalarALUOp|parallelALUOp' $(HOTPATH_FILES); status=$$?; \
	if [ $$status -eq 0 ]; then \
	  echo "hotpath-lint: per-exec decode work found in a per-cycle path (use the decoded micro-op fields)"; exit 1; \
	elif [ $$status -ne 1 ]; then \
	  echo "hotpath-lint: could not read every HOTPATH_FILES entry (update the list when files move)"; exit 1; \
	fi; \
	echo "hotpath-lint: per-cycle paths are decode-free"

# The benchmark is its own Go module (bench/go.mod), so `go test ./...`
# at the root never reaches its import guard, golden gate, or compare
# logic.
bench-test:
	cd bench && $(GO) test .

# Run every fuzz target for 10 s beyond its seed corpus (which plain
# `go test` already runs), one package per invocation as `go test -fuzz`
# requires. Minimization is capped so a newly interesting large input
# (snapshots, envelopes) does not stall the smoke run for a minute.
FUZZ_TARGETS = FuzzOracle:./internal/core FuzzEnvelope:./internal/migrate \
	FuzzRestore:./internal/machine FuzzExecLanes:./internal/machine \
	FuzzCompile:./internal/ascl \
	FuzzAssemble:./internal/asm FuzzDecode:./internal/asm \
	FuzzRequest:./internal/server FuzzGateway:./internal/gateway \
	FuzzParseText:./internal/obs FuzzWireDecode:./internal/wire \
	FuzzWireEncode:./internal/wire

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
	  name=$${t%%:*}; pkg=$${t#*:}; \
	  echo "fuzz-smoke: $$name ($$pkg)"; \
	  $(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime 10s -fuzzminimizetime 1s $$pkg || exit 1; \
	done

check: build fmt-check vet test race bench-smoke apicheck hotpath-lint bench-test
