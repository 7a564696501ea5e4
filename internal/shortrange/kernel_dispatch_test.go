//go:build !amd64 || hacc_noasm

package shortrange

import "testing"

// forceKernelPath skips: this build has no assembly kernels to force.
func forceKernelPath(tb testing.TB, path string) {
	tb.Helper()
	tb.Skipf("%s kernel: built without the amd64 assembly kernels", path)
}
