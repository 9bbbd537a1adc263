//go:build !ddnnpoison

package poison

// On reports whether this build poisons released memory.
const On = false

// Fill is a no-op unless the build has the ddnnpoison tag.
func Fill(any) {}
