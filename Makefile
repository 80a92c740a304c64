# Reproduces the CI gates locally. `make lint test` before pushing runs
# exactly what the lint and test jobs run.

GOBIN := $(shell go env GOPATH)/bin

.PHONY: all build test lint sgelint fmt-check vet clean

all: build lint test

build:
	go build ./...

# servebench is its own Go module, so ./... skips it; it calls the
# library and service APIs, so it is built, vetted and tested here too.
test:
	go test ./...
	go -C servebench vet ./... && go -C servebench test .

# lint = the CI lint job: the sgelint invariant suite over every
# package (including test files, via go vet's [pkg.test] variants),
# plain go vet, and a gofmt cleanliness check.
lint: sgelint vet fmt-check

sgelint:
	go build -o $(GOBIN)/sgelint ./cmd/sgelint
	go vet -vettool=$(GOBIN)/sgelint ./...

vet:
	go vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

clean:
	rm -f $(GOBIN)/sgelint coverage.out
