//go:build linux || darwin

package runtime

import (
	"os"
	"syscall"
)

// statIdent builds a file's identity from its stat result; ctimeNanos reads
// the ctime, whose field name differs between the platforms.
func statIdent(fi os.FileInfo) (FileIdent, bool) {
	st, ok := fi.Sys().(*syscall.Stat_t)
	if !ok {
		return FileIdent{}, false
	}
	return FileIdent{
		Size:         fi.Size(),
		ModTimeNanos: fi.ModTime().UnixNano(),
		Dev:          uint64(st.Dev),
		Ino:          uint64(st.Ino),
		CtimeNanos:   ctimeNanos(st),
	}, true
}
