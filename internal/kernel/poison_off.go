//go:build !taskpoison

package kernel

// taskPoison is off: reaped threads go back to the kernel's free list,
// and the use-after-Join checks compile away (see poison_on.go).
const taskPoison = false
