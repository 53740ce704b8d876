package cli

import (
	"fmt"
	"runtime"

	"repro/internal/automaton"
)

// Version is the single source of build-version truth for all five
// binaries. Release builds stamp it at link time:
//
//	go build -ldflags "-X repro/internal/cli.Version=v1.2.3" ./cmd/...
//
// Unstamped builds report "dev".
var Version = "dev"

// CompilerFingerprint identifies the automaton compiler baked into
// this binary — whether two builds give a purpose the same automaton
// fingerprint, at a glance.
func CompilerFingerprint() string { return automaton.CompilerVersion }

// VersionString renders the canonical one-line -version output for a
// binary.
func VersionString(binary string) string {
	return fmt.Sprintf("%s %s (%s, %s)", binary, Version, runtime.Version(), CompilerFingerprint())
}
