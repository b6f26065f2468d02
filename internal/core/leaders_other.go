//go:build !amd64

package core

// haveLeaderKernel is false on ports without the AVX-512 leader kernel
// (leaders_amd64.s): leaderKeys runs the Go network.
const haveLeaderKernel = false

// leaderKernel is never called here: leaderKernelOn stays false.
func leaderKernel(top *[streamMaxPlace + 1]uint64, samples []int, nonce, idx uint64) {
	panic("core: no leader kernel on this port")
}
