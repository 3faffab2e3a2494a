package main

import (
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// machine is the stanza every artifact carries so measurements can be
// compared across hosts: the CPUs the OS reports, the Go scheduler's
// thread limit, the toolchain, and the measured source tree.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentMachine() machine {
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
}

// commit names the measured source tree, suffixed -dirty for uncommitted
// changes to tracked files. A binary built inside a git work tree carries
// the VCS stamp; `go run` binaries do not, so git is asked directly, and
// a plain source checkout records "unknown".
func commit() string {
	rev, dirty := "", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if rev == "" {
		out, err := exec.Command("git", "rev-parse", "HEAD").Output()
		if err != nil {
			return "unknown"
		}
		rev = strings.TrimSpace(string(out))
		status, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
		dirty = err == nil && len(status) > 0
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
