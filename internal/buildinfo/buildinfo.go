// Package buildinfo resolves the identity of the running binary — module
// path, version, Go toolchain, VCS revision — from the data the Go linker
// embeds (runtime/debug.ReadBuildInfo). cmd/broadcasticd, cmd/experiments
// and cmd/netdisj print it behind a -version flag, and the job service
// keys its result cache by it (jobs.BuildSHA).
package buildinfo

import (
	"flag"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
)

// Info is the resolved build identity. Fields are empty when the binary
// carries no corresponding metadata (e.g. test binaries or go run builds
// outside a VCS checkout).
type Info struct {
	// Path is the main module path ("broadcastic").
	Path string `json:"path,omitempty"`
	// Version is the main module version ("(devel)" for workspace builds).
	Version string `json:"version,omitempty"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version,omitempty"`
	// Revision and Time identify the VCS commit, when stamped.
	Revision string `json:"revision,omitempty"`
	Time     string `json:"time,omitempty"`
	// Modified is true when the working tree was dirty at build time.
	Modified bool `json:"modified,omitempty"`
}

// Resolve reads the running binary's build information. It never fails:
// with no embedded data (some test binaries), only GoVersion is set.
func Resolve() Info {
	info := Info{GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return info
	}
	info.Path = bi.Main.Path
	info.Version = bi.Main.Version
	if bi.GoVersion != "" {
		info.GoVersion = bi.GoVersion
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			info.Revision = s.Value
		case "vcs.time":
			info.Time = s.Value
		case "vcs.modified":
			info.Modified = s.Value == "true"
		}
	}
	return info
}

// String renders the one-line form the -version flags print, e.g.
//
//	broadcastic (devel) go1.22.0 rev 0d01442… (modified)
func (i Info) String() string {
	var b strings.Builder
	path := i.Path
	if path == "" {
		path = "(unknown module)"
	}
	b.WriteString(path)
	if i.Version != "" {
		fmt.Fprintf(&b, " %s", i.Version)
	}
	fmt.Fprintf(&b, " %s", i.GoVersion)
	if i.Revision != "" {
		rev := i.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		fmt.Fprintf(&b, " rev %s", rev)
		if i.Time != "" {
			fmt.Fprintf(&b, " (%s)", i.Time)
		}
	}
	if i.Modified {
		b.WriteString(" (modified)")
	}
	return b.String()
}

// Flag registers the conventional -version flag on fs and returns the
// destination; CLIs test it right after parsing and print Resolve() when
// set.
func Flag(fs *flag.FlagSet) *bool {
	return fs.Bool("version", false, "print build/version information and exit")
}
