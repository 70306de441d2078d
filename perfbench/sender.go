package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"runtime"
	"sync/atomic"
	"time"

	"cognitivearm/internal/stream"
)

// The udp-journal load generator runs as a separate, single-threaded
// process (the benchmark binary started with --sender), so its CPU is not
// charged to the serving process. It reads its configuration as one JSON
// line on stdin, streams until stdin closes, then prints a senderReport.

type senderConfig struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Addrs    []string `json:"addrs"`
	// BaseUnixNs is the server clock's base instant in wall time; the
	// sender converts its own clock onto the server's with it.
	BaseUnixNs  int64 `json:"base_unix_ns"`
	StreamStart int64 `json:"stream_start_ns"`
	// MeasureFrom is when lateness starts to count (the end of warm-up).
	MeasureFrom int64 `json:"measure_from_ns"`
}

type senderReport struct {
	Sent      uint64 `json:"sent"`
	LateMaxNs int64  `json:"late_max_ns"`
}

const (
	// senderSleep is the send loop's wake-up period: every wake sends all
	// chunks whose jittered send time has passed.
	senderSleep = time.Millisecond
	// sendChunk samples go out back to back, one datagram each, once the
	// last of them is due: 40 ms chunks, as cogarmd's demo streamers send.
	sendChunk = 5
)

// runSender is the --sender entry point.
func runSender() error {
	runtime.GOMAXPROCS(1)
	var cfg senderConfig
	dec := json.NewDecoder(os.Stdin)
	if err := dec.Decode(&cfg); err != nil {
		return fmt.Errorf("sender: read config: %w", err)
	}
	wl, err := findWorkload(cfg.Workload)
	if err != nil {
		return err
	}
	in := makeInputs(wl, len(cfg.Addrs), cfg.Seed)
	var stop atomic.Bool
	go func() {
		io.Copy(io.Discard, io.MultiReader(dec.Buffered(), os.Stdin))
		stop.Store(true)
	}()
	conns := make([]*net.UDPConn, len(cfg.Addrs))
	for i, a := range cfg.Addrs {
		ua, err := net.ResolveUDPAddr("udp", a)
		if err != nil {
			return fmt.Errorf("sender: %w", err)
		}
		if conns[i], err = net.DialUDP("udp", nil, ua); err != nil {
			return fmt.Errorf("sender: %w", err)
		}
		defer conns[i].Close()
	}
	now := func() int64 { return time.Now().UnixNano() - cfg.BaseUnixNs }
	// sendAt is when the chunk starting at next is sent: when its last
	// sample is due, plus that sample's jitter, never before the previous
	// chunk.
	next := make([]uint64, len(conns))
	sendAt := make([]int64, len(conns))
	chunkSendAt := func(s int, first uint64) int64 {
		last := first + sendChunk - 1
		return cfg.StreamStart + in.dueNs(s, last) + in.jitter(s, last)
	}
	for s := range conns {
		sendAt[s] = chunkSendAt(s, 0)
	}
	var rep senderReport
	for !stop.Load() {
		t := now()
		for s, c := range conns {
			for sendAt[s] <= t {
				for seq := next[s]; seq < next[s]+sendChunk; seq++ {
					due := in.dueNs(s, seq)
					smp := stream.Sample{Seq: seq, Timestamp: float64(due) / 1e9, Values: in.values(s, seq)}
					frame, _ := smp.MarshalBinary()
					if _, err := c.Write(frame); err == nil {
						rep.Sent++
					}
				}
				if late := t - sendAt[s]; sendAt[s] >= cfg.MeasureFrom && late > rep.LateMaxNs {
					rep.LateMaxNs = late
				}
				next[s] += sendChunk
				sendAt[s] = max(sendAt[s], chunkSendAt(s, next[s]))
			}
		}
		time.Sleep(senderSleep)
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// sender is the parent's handle on a running sender process.
type sender struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   bytes.Buffer
}

// startSender launches the sender process and hands it its configuration.
func startSender(cfg senderConfig) (*sender, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	s := &sender{cmd: exec.Command(exe, "--sender")}
	s.cmd.Stdout = &s.out
	s.cmd.Stderr = os.Stderr
	if s.stdin, err = s.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sender: %w", err)
	}
	if err := json.NewEncoder(s.stdin).Encode(cfg); err != nil {
		s.stdin.Close()
		s.cmd.Wait()
		return nil, fmt.Errorf("configure sender: %w", err)
	}
	return s, nil
}

// stop closes the sender's stdin, waits for it to exit and returns its
// report.
func (s *sender) stop() (senderReport, error) {
	s.stdin.Close()
	var rep senderReport
	if err := s.cmd.Wait(); err != nil {
		return rep, fmt.Errorf("sender: %w", err)
	}
	if err := json.Unmarshal(s.out.Bytes(), &rep); err != nil {
		return rep, fmt.Errorf("sender report: %w", err)
	}
	return rep, nil
}
