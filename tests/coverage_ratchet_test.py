#!/usr/bin/env python3
"""Self-test of tools/coverage_ratchet.py: the key rule and the comparison.

The key rule is checked on demangled names of every shape src/ produces
under gcov; the comparison on a hand-written gcov JSON document, so no
coverage build is needed.
"""
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "tools"))
import coverage_ratchet as ratchet  # noqa: E402

STRING = ("std::__cxx11::basic_string<char, std::char_traits<char>, "
          "std::allocator<char> >")


class KeyRule(unittest.TestCase):
    def check(self, demangled, key):
        self.assertEqual(ratchet.function_key_name(demangled), key)

    def test_plain_member_drops_parameters_and_const(self):
        self.check("fbufs::Trace::EmitFull(fbufs::TraceCategory, char const*, "
                   "unsigned long) const", "fbufs::Trace::EmitFull")

    def test_return_type_goes(self):
        self.check("unsigned long fbufs::ScheduleOn<fbufs::Foo::Run()::"
                   "{lambda()#1}>(fbufs::EventLoop&, fbufs::Machine&, "
                   f"unsigned int, unsigned long, {STRING}, "
                   "fbufs::Foo::Run()::{lambda()#1})", "fbufs::ScheduleOn")

    def test_abi_tag_goes(self):
        self.check("fbufs::FbufSystem::DebugDump[abi:cxx11]() const",
                   "fbufs::FbufSystem::DebugDump")

    def test_instantiation_over_a_test_lambda_merges_into_the_template(self):
        test_lambda = ("unsigned long fbufs::ScheduleOn<fbufs::(anonymous "
                       "namespace)::EventLoop_Wakes_Test::TestBody()::"
                       "{lambda()#1}>(fbufs::EventLoop&, fbufs::Machine&, "
                       f"unsigned int, unsigned long, {STRING}, fbufs::"
                       "(anonymous namespace)::EventLoop_Wakes_Test::"
                       "TestBody()::{lambda()#1})")
        real = ("unsigned long fbufs::ScheduleOn<fbufs::TransferRing::"
                "ScheduleDrain(unsigned long)::{lambda()#1}>(fbufs::EventLoop&"
                f", fbufs::Machine&, unsigned int, unsigned long, {STRING}, "
                "fbufs::TransferRing::ScheduleDrain(unsigned long)::"
                "{lambda()#1})")
        self.assertEqual(ratchet.function_key_name(test_lambda),
                         ratchet.function_key_name(real))

    def test_lambda_keeps_its_ordinal(self):
        self.check("fbufs::FbufSystem::FbufSystem(fbufs::Machine*, "
                   "fbufs::FbufConfig const&)::{lambda(fbufs::Domain&)#2}::"
                   "operator()(fbufs::Domain&) const",
                   "fbufs::FbufSystem::FbufSystem::{lambda#2}::operator()")

    def test_lambda_in_a_const_member(self):
        self.check("fbufs::Json::Dump(int) const::{lambda()#1}::operator()() "
                   "const", "fbufs::Json::Dump::{lambda#1}::operator()")

    def test_lambda_inside_a_template_instantiation(self):
        self.check("fbufs::ScheduleOn<fbufs::TransferRing::ArmFlushTimer()::"
                   "{lambda()#1}>(fbufs::EventLoop&, fbufs::Machine&, unsigned "
                   f"int, unsigned long, {STRING}, fbufs::TransferRing::"
                   "ArmFlushTimer()::{lambda()#1})::{lambda()#1}::operator()()",
                   "fbufs::ScheduleOn::{lambda#1}::operator()")

    def test_operators_keep_their_symbols(self):
        self.check("fbufs::EventLoop::TraceEntry::operator==(fbufs::EventLoop::"
                   "TraceEntry const&) const",
                   "fbufs::EventLoop::TraceEntry::operator==")
        self.check("fbufs::PhysMem::FreeDeleter::operator()(unsigned char*) "
                   "const", "fbufs::PhysMem::FreeDeleter::operator()")
        self.check("bool fbufs::operator< <int>(fbufs::X<int> const&, "
                   "fbufs::X<int> const&)", "fbufs::operator<")
        self.check("fbufs::Foo::operator bool() const",
                   "fbufs::Foo::operator bool")

    def test_destructor(self):
        self.check("fbufs::TraceSpan::~TraceSpan()", "fbufs::TraceSpan::~TraceSpan")

    def test_anonymous_namespace_survives(self):
        self.check("fbufs::(anonymous namespace)::Mix(unsigned long)",
                   "fbufs::(anonymous namespace)::Mix")

    def test_two_overloads_merge(self):
        a = ratchet.function_key_name(
            "fbufs::PathRegistry::Register(std::vector<unsigned int, "
            "std::allocator<unsigned int> >)")
        b = ratchet.function_key_name(
            "fbufs::PathRegistry::Register(std::vector<unsigned int, "
            "std::allocator<unsigned int> >, unsigned int*)")
        self.assertEqual(a, "fbufs::PathRegistry::Register")
        self.assertEqual(a, b)


def gcov_document():
    """Two src/ functions (one ran, one did not) and one outside src/."""
    return {
        "current_working_directory": ratchet.REPO,
        "files": [
            {"file": "src/sim/widget.cc", "functions": [
                {"demangled_name": "fbufs::Widget::Run(int)",
                 "execution_count": 3},
                {"demangled_name": "fbufs::Widget::Idle() const",
                 "execution_count": 0},
            ]},
            {"file": "/usr/include/c++/12/bits/stl_vector.h", "functions": [
                {"demangled_name": "std::vector<int>::size() const",
                 "execution_count": 0},
            ]},
        ],
    }


IDLE = "src/sim/widget.cc fbufs::Widget::Idle"
RUN = "src/sim/widget.cc fbufs::Widget::Run"


class Comparison(unittest.TestCase):
    def test_lists_only_unreached_src_functions(self):
        self.assertEqual(ratchet.report([gcov_document()]), (0, [IDLE]))

    def test_any_instance_reaching_a_key_counts(self):
        other = gcov_document()
        other["files"][0]["functions"][1]["execution_count"] = 1
        self.assertEqual(ratchet.report([gcov_document(), other]), (0, []))

    def test_clean_match_passes(self):
        status, lines = ratchet.report([gcov_document()], {IDLE})
        self.assertEqual(status, 0)
        self.assertIn("1 unreached", lines[0])

    def test_new_key_fails(self):
        status, lines = ratchet.report([gcov_document()], set())
        self.assertEqual(status, 1)
        self.assertIn(f"  new: {IDLE}", lines)

    def test_reached_and_gone_keys_are_stale(self):
        gone = "src/sim/gone.cc fbufs::Gone"
        status, lines = ratchet.report([gcov_document()], {IDLE, RUN, gone})
        self.assertEqual(status, 1)
        self.assertIn(f"  stale: {RUN}  (delete this line)", lines)
        self.assertIn(f"  stale: {gone}  (delete this line)", lines)
        self.assertFalse(any("new:" in line for line in lines))

    def test_baseline_skips_comments_and_blank_lines(self):
        with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as f:
            f.write(f"# Waiting for a bench row\n\n{IDLE}\n  # indented\n")
        try:
            self.assertEqual(ratchet.read_baseline(f.name), {IDLE})
        finally:
            os.unlink(f.name)


if __name__ == "__main__":
    unittest.main()
