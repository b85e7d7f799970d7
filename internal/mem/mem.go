// Package mem models the off-chip memory path of the simulated CMP: the
// front-side bus (FSB) and a fixed-latency DRAM, per Table II of the paper
// (800 MHz FSB, 8 bytes wide, 200-cycle DRAM latency, 3 GHz cores).
//
// All times are in core cycles.
package mem

import "fmt"

// BusConfig describes the FSB.
type BusConfig struct {
	CoreClockMHz int // core frequency (3000 in the paper)
	BusClockMHz  int // FSB frequency (800 in the paper)
	WidthBytes   int // bytes transferred per bus cycle (8 in the paper)
	LineBytes    int // cache line size (64)
	CommandBytes int // request/command message size on the bus
}

// DefaultBusConfig returns the paper's FSB parameters.
func DefaultBusConfig() BusConfig {
	return BusConfig{
		CoreClockMHz: 3000,
		BusClockMHz:  800,
		WidthBytes:   8,
		LineBytes:    64,
		CommandBytes: 8,
	}
}

// Bus models a split-transaction FSB: the address/command path and the
// data path are booked independently, so a request waiting in DRAM does
// not block other transfers. Each path tracks the cycle at which it next
// becomes free; requests arriving earlier queue behind it.
type Bus struct {
	lineCycles    uint64 // core cycles to move one cache line
	commandCycles uint64 // core cycles to move one command
	cmdFreeAt     uint64
	dataFreeAt    uint64
	busy          uint64 // total busy core cycles (utilisation accounting)
	transfers     uint64
}

// NewBus builds a bus from cfg.
func NewBus(cfg BusConfig) (*Bus, error) {
	if cfg.CoreClockMHz <= 0 || cfg.BusClockMHz <= 0 || cfg.WidthBytes <= 0 ||
		cfg.LineBytes <= 0 || cfg.CommandBytes <= 0 {
		return nil, fmt.Errorf("mem: invalid bus config %+v", cfg)
	}
	ratio := float64(cfg.CoreClockMHz) / float64(cfg.BusClockMHz)
	lineBusCycles := (cfg.LineBytes + cfg.WidthBytes - 1) / cfg.WidthBytes
	cmdBusCycles := (cfg.CommandBytes + cfg.WidthBytes - 1) / cfg.WidthBytes
	return &Bus{
		lineCycles:    uint64(float64(lineBusCycles)*ratio + 0.5),
		commandCycles: uint64(float64(cmdBusCycles)*ratio + 0.5),
	}, nil
}

// MustNewBus is NewBus for static configurations.
func MustNewBus(cfg BusConfig) *Bus {
	b, err := NewBus(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// LineCycles returns the core cycles one line transfer occupies the bus.
func (b *Bus) LineCycles() uint64 { return b.lineCycles }

// reserve books one bus path for dur cycles starting no earlier than now.
func (b *Bus) reserve(freeAt *uint64, now, dur uint64) (start, done uint64) {
	start = now
	if *freeAt > start {
		start = *freeAt
	}
	done = start + dur
	*freeAt = done
	b.busy += dur
	b.transfers++
	return start, done
}

// TransferLine books a full cache-line transfer on the data path beginning
// at or after now and returns when it starts and completes.
func (b *Bus) TransferLine(now uint64) (start, done uint64) {
	return b.reserve(&b.dataFreeAt, now, b.lineCycles)
}

// TransferCommand books a miss request on the address/command path at or
// after now.
func (b *Bus) TransferCommand(now uint64) (start, done uint64) {
	return b.reserve(&b.cmdFreeAt, now, b.commandCycles)
}

// BusyCycles reports cumulative busy time, for utilisation statistics.
func (b *Bus) BusyCycles() uint64 { return b.busy }

// Transfers reports the number of bookings.
func (b *Bus) Transfers() uint64 { return b.transfers }

// DRAM is a fixed-latency, fully pipelined memory: a request arriving at
// cycle t is served at t + Latency. Bank conflicts are not modelled,
// matching the paper's flat "DRAM latency: 200 cycles" parameter.
type DRAM struct {
	latency  uint64
	requests uint64
}

// NewDRAM builds a DRAM with the given access latency in core cycles.
func NewDRAM(latencyCycles uint64) *DRAM { return &DRAM{latency: latencyCycles} }

// Latency returns the configured access latency.
func (d *DRAM) Latency() uint64 { return d.latency }

// Access returns the completion time of a request arriving at now.
func (d *DRAM) Access(now uint64) uint64 {
	d.requests++
	return now + d.latency
}

// Requests reports the number of accesses served.
func (d *DRAM) Requests() uint64 { return d.requests }
