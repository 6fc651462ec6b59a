package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tcpsig"
	"tcpsig/internal/netem"
	"tcpsig/internal/pcap"
	"tcpsig/internal/sim"
	"tcpsig/internal/tcpsim"
)

// TestServeVerdictBeforeEOF: serve reading a live pipe writes a flow's
// verdict line once the flow's records are in, while stdin is still open.
// Neither the reader's partial slab nor the NDJSON buffer may hold it back
// until more input or EOF arrives.
func TestServeVerdictBeforeEOF(t *testing.T) {
	dir := t.TempDir()
	var ex []tcpsig.Example
	for i := 0; i < 40; i++ {
		d := float64(i) / 100
		ex = append(ex,
			tcpsig.Example{X: []float64{0.6 + d/4, 0.3 + d/4}, Label: 0},
			tcpsig.Example{X: []float64{0.1 + d/4, 0.05 + d/8}, Label: 1},
		)
	}
	clf, err := tcpsig.Train(ex, tcpsig.TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	model := filepath.Join(dir, "model.json")
	if err := clf.SaveFile(model); err != nil {
		t.Fatal(err)
	}

	// One download whose slow start ends in a loss: its verdict is due
	// well before the capture's last record.
	eng := sim.NewEngine(41)
	net := netem.New(eng)
	client, server := net.NewHost("client"), net.NewHost("server")
	net.Connect(server, client,
		netem.LinkConfig{RateBps: 20e6, Delay: 20 * time.Millisecond, Queue: netem.NewDropTailDepth(20e6, 100*time.Millisecond)},
		netem.LinkConfig{RateBps: 1e9, Delay: 20 * time.Millisecond})
	capt := server.EnableCapture()
	tcpsim.StartDownload(client, server, 40000, 80, tcpsim.Config{}, 0, 5*time.Second)
	eng.Run()
	var raw bytes.Buffer
	if err := pcap.NewWriter(&raw).WriteCapture(capt); err != nil {
		t.Fatal(err)
	}
	ip := pcap.ServerIP(server.Addr())
	serverIP := ipString4(ip)

	cmd := exec.Command(os.Args[0], "serve", "-model", model, "-server", serverIP)
	cmd.Env = append(os.Environ(), "CCSIG_TEST_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { // on a failure below, let serve see EOF and exit
		stdin.Close()
		cmd.Wait()
	}()
	lines := make(chan string, 1)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	if _, err := stdin.Write(raw.Bytes()); err != nil {
		t.Fatal(err)
	}

	select {
	case line, ok := <-lines:
		if !ok {
			cmd.Wait()
			t.Fatalf("serve closed stdout without a verdict; stderr:\n%s", stderr.String())
		}
		if want := `"src_ip":"` + serverIP + `"`; !strings.Contains(line, want) || !strings.Contains(line, `"class":`) {
			t.Fatalf("verdict line %q lacks %s or a class", line, want)
		}
	case <-time.After(time.Minute):
		t.Fatal("no verdict line within a minute while stdin stayed open")
	}

	// At EOF serve exits cleanly (under -race, also free of data races).
	stdin.Close()
	for range lines {
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("serve: %v; stderr:\n%s", err, stderr.String())
	}
}
