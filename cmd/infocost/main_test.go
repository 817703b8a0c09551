package main

import "testing"

func TestRunSmoke(t *testing.T) {
	if err := run([]string{"-k", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-k", "32", "-method", "mc", "-samples", "500"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-k", "32", "-method", "mc", "-samples", "500", "-parallel", "4"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-k", "4", "-protocol", "broadcast"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-k", "4", "-protocol", "lazy", "-delta", "0.2"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-protocol", "bogus"}); err == nil {
		t.Fatal("bogus protocol accepted")
	}
	if err := run([]string{"-k", "4", "-samples", "100", "-method", "bogus"}); err == nil {
		t.Fatal("bogus method accepted")
	}
}
