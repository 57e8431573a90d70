// Command storeserver runs the centralized storage service: the home
// of the permanent database images and the per-node redo logs (the
// role the paper's prototype gave an NFS server, §3).
//
//	storeserver -listen 0.0.0.0:7070 -dir /var/lib/lbc
//
// With -dir the images and logs persist on local disk; without it the
// server is memory-backed (useful for experiments).
//
// With -mirror the server is the primary of a mirrored pair: it
// forwards every mutation to the backup at that address before it
// acknowledges the client (§2's "transparently replicated" storage
// service). Start the backup first; clients list both addresses and
// fail over to the backup when the primary dies:
//
//	storeserver -listen 127.0.0.1:7071 &
//	storeserver -listen 127.0.0.1:7070 -mirror 127.0.0.1:7071
//	lbcnode ... -store 127.0.0.1:7070,127.0.0.1:7071
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"lbc/internal/obs"
	"lbc/internal/rvm"
	"lbc/internal/store"
	"lbc/internal/wal"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7070", "listen address")
	dir := flag.String("dir", "", "persistence directory (empty = in-memory)")
	debugAddr := flag.String("debug", "", "serve /debug/lbc (metrics, vars, pprof) on this address")
	mirror := flag.String("mirror", "", "backup server address: mirror every mutation there before acknowledging it")
	flag.Parse()

	opts := store.ServerOptions{}
	if *dir != "" {
		data, err := rvm.NewDirStore(filepath.Join(*dir, "data"))
		if err != nil {
			die(err)
		}
		logDir := filepath.Join(*dir, "logs")
		if err := os.MkdirAll(logDir, 0o755); err != nil {
			die(err)
		}
		opts.Data = data
		opts.NewLog = func(node uint32) (wal.Device, error) {
			return wal.OpenFileDevice(filepath.Join(logDir, fmt.Sprintf("node-%d.log", node)))
		}
	}
	// The backup link is dialed first, so the mirror is attached
	// before clients can find the listener.
	var link *store.Client
	if *mirror != "" {
		if err := retryFor(30*time.Second, func() (err error) {
			link, err = store.Dial(*mirror)
			return err
		}); err != nil {
			die(fmt.Errorf("mirror: %w", err))
		}
		defer link.Close()
	}
	srv, err := store.NewServer(*listen, opts)
	if err != nil {
		die(err)
	}
	if link != nil {
		srv.Mirror(link)
		fmt.Printf("storeserver: mirroring to %s\n", *mirror)
	}
	fmt.Printf("storeserver: listening on %s (dir=%q)\n", srv.Addr(), *dir)

	if *debugAddr != "" {
		reg := obs.NewRegistry()
		reg.Register("store", srv.Stats())
		reg.RegisterGauge("store_logs", func() int64 { return int64(len(srv.Logs())) })
		go func() {
			if err := http.ListenAndServe(*debugAddr, obs.Handler(reg, nil)); err != nil {
				fmt.Fprintln(os.Stderr, "storeserver: debug server:", err)
			}
		}()
		fmt.Printf("storeserver: /debug/lbc on http://%s/debug/lbc/metrics\n", *debugAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("storeserver: shutting down")
	srv.Close()
}

// retryFor retries fn until it succeeds or the window elapses — the
// two servers of a pair come up one process at a time, so the first
// attempts may race the backup's listener.
func retryFor(window time.Duration, fn func() error) error {
	deadline := time.Now().Add(window)
	for {
		err := fn()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(250 * time.Millisecond)
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "storeserver:", err)
	os.Exit(1)
}
