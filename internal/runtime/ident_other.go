//go:build !linux && !darwin

package runtime

import "os"

// statIdent reports ok=false: without the device, inode and ctime a file's
// identity cannot witness a same-size rewrite whose mtime was put back, so
// such files are never pruned on stored zones or served from the result
// cache.
func statIdent(os.FileInfo) (FileIdent, bool) { return FileIdent{}, false }
