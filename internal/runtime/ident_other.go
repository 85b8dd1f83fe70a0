//go:build !linux && !darwin

package runtime

import "os"

// statIdent reports ok=false: without the device, inode and ctime a file's
// identity cannot witness a same-size rewrite whose mtime was put back.
// Such a file gets no sidecar, so a fresh engine never prunes it. The engine
// that built its zones does keep pruning it on them, unchecked, as it does
// in-memory documents: a rewrite goes unseen until the collection is
// mounted again.
func statIdent(os.FileInfo) (FileIdent, bool) { return FileIdent{}, false }
