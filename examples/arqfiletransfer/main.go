// ARQ file transfer: the paper's §3.4 worked example end to end. A
// "file" is chunked into payloads and moved across a badly impaired
// simulated link (loss, duplication, corruption, reordering) by the
// stop-and-wait ARQ protocol; the received file must be byte-identical.
// The same transfer is then repeated with the go-back-N extension to
// show the window's effect on a long-delay link.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"protodsl"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// Synthesise a 32 KiB "file" and chunk it.
	file := make([]byte, 32*1024)
	for i := range file {
		file[i] = byte(i*7 + i/255)
	}
	const chunk = 512
	var payloads [][]byte
	for off := 0; off < len(file); off += chunk {
		end := off + chunk
		if end > len(file) {
			end = len(file)
		}
		payloads = append(payloads, file[off:end])
	}
	fmt.Fprintf(w, "transferring %d bytes in %d chunks\n\n", len(file), len(payloads))

	// A hostile link: every §2.2 hazard at once.
	link := protodsl.LinkParams{
		Delay:        3 * time.Millisecond,
		Jitter:       time.Millisecond,
		LossProb:     0.15,
		DupProb:      0.05,
		CorruptProb:  0.05,
		ReorderProb:  0.05,
		ReorderDelay: 10 * time.Millisecond,
	}

	res, err := protodsl.RunARQTransfer(protodsl.ARQConfig{
		Link: link, RTO: 25 * time.Millisecond, MaxRetries: 100, Seed: 42,
	}, payloads)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "stop-and-wait: ok=%v end-state=%s\n", res.OK, res.SenderState)
	fmt.Fprintf(w, "  packets sent: %d (%d retransmits, %d timeouts)\n",
		res.Sender.PacketsSent, res.Sender.Retransmits, res.Sender.Timeouts)
	fmt.Fprintf(w, "  receiver: %d corrupted dropped, %d duplicates re-acked\n",
		res.Receiver.PacketsCorrupted, res.Receiver.Duplicates)
	fmt.Fprintf(w, "  virtual time: %s, goodput %.0f B/s\n", res.Duration, res.Goodput())

	// Verify the file arrived intact — the checksum-witness discipline
	// means a corrupted chunk can never have been delivered.
	var got bytes.Buffer
	for _, p := range res.Delivered {
		got.Write(p)
	}
	if !bytes.Equal(got.Bytes(), file) {
		return fmt.Errorf("file corrupted in transit: %d bytes received", got.Len())
	}
	fmt.Fprintf(w, "  file intact: %d bytes, byte-identical ✓\n\n", got.Len())

	// The further-work extension: a window of 16 on a long-delay link.
	longLink := protodsl.LinkParams{Delay: 25 * time.Millisecond, LossProb: 0.05}
	for _, window := range []int{1, 16} {
		gres, err := protodsl.RunGBNTransfer(protodsl.GBNConfig{
			Link: longLink, RTO: 150 * time.Millisecond, MaxRetries: 60,
			Window: window, Seed: 7,
		}, payloads)
		if err != nil {
			return err
		}
		if !gres.OK {
			return fmt.Errorf("go-back-N window %d failed", window)
		}
		fmt.Fprintf(w, "go-back-N window=%-2d  time=%-12s goodput=%8.0f B/s  packets=%d\n",
			window, gres.Duration, gres.Goodput(), gres.PacketsSent)
	}
	return nil
}
