package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// facts are the conditions a run was measured under, printed with its
// results so numbers from different hosts are not compared blindly.
type facts struct {
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	CPUModel     string `json:"cpu_model"`
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	CheckpointFS string `json:"checkpoint_fs"`
	Network      string `json:"network"`
	// StealFrac is the share of the machine's CPU time the hypervisor
	// stole during the last set-up and the timed window, printed so a
	// slow run on a shared virtual machine can be told apart.
	StealFrac float64 `json:"steal_frac"`
}

func gatherFacts(workload string, seed uint64, ckptDir string) facts {
	return facts{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		Workload:     workload,
		Seed:         seed,
		CheckpointFS: fsType(ckptDir),
		Network:      "loopback TCP on 127.0.0.1 in one process; no real link was crossed",
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsMagic names the filesystems whose fsync cost differs enough to matter
// for the checkpoint: tmpfs syncs about 20 times faster than ext4.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// cpuTicks returns the machine's total and stolen CPU time, in clock
// ticks, from the first line of /proc/stat; zeros where it is unreadable.
func cpuTicks() (total, steal int64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for _, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		steal = v
	}
	return total, steal
}
