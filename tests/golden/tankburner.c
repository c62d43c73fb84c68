#include <math.h>

enum states { t1b1, t1b2, t2b1, t2b2, t3b1, t3b2, t4b1, t4b2 };

double d = 0.01;
long k = 0;
int stuck = 0;
double x = 20.0;
double x_u = 20.0;
double C1_x = 20.0;
double c = 0.0;
double c_u = 0.0;
double C1_c = 0.0;
int ON = 0;
int ON_out = 0;
int OFF = 0;
int OFF_out = 0;

double t1b1_ode_1(double C1) { return C1; }
double t1b1_ode_2(double d, double k, double C1) { return C1 + 1*d*k; }
double t1b2_ode_1(double C1) { return C1; }
double t1b2_ode_2(double d, double k, double C1) { return C1 + 1*d*k; }
double t2b1_ode_1(double d, double k, double C1) { return 150 + C1*exp(-0.075*d*k); }
double t2b1_init_1(double x0) { return x0 - 150; }
double t2b1_ode_2(double d, double k, double C1) { return C1 + 1*d*k; }
double t2b2_ode_1(double d, double k, double C1) { return 150 + C1*exp(-0.075*d*k); }
double t2b2_init_1(double x0) { return x0 - 150; }
double t2b2_ode_2(double d, double k, double C1) { return C1 + 1*d*k; }
double t3b1_ode_1(double C1) { return C1; }
double t3b1_ode_2(double d, double k, double C1) { return C1 + 1*d*k; }
double t3b2_ode_1(double C1) { return C1; }
double t3b2_ode_2(double d, double k, double C1) { return C1 + 1*d*k; }
double t4b1_ode_1(double d, double k, double C1) { return C1*exp(-0.075*d*k); }
double t4b1_ode_2(double d, double k, double C1) { return C1 + 1*d*k; }
double t4b2_ode_1(double d, double k, double C1) { return C1*exp(-0.075*d*k); }
double t4b2_ode_2(double d, double k, double C1) { return C1 + 1*d*k; }

enum states tankburnerR(enum states cstate, enum states pstate) {
    x = x_u;
    c = c_u;
    switch (cstate) {
    case t1b1: {
        if (x == 20 && c >= 0 && c <= 25 && !ON && !OFF) {
            if (pstate != cstate) {
                C1_x = x;
                C1_c = c;
            }
            k = k + 1;
            x_u = t1b1_ode_1(C1_x);
            c_u = t1b1_ode_2(d, k, C1_c);
            cstate = t1b1;
        }
        else {
            double x_prev = (k >= 1) ? t1b1_ode_1(C1_x) : x;
            double c_prev = (k >= 1) ? t1b1_ode_2(d, k - 1, C1_c) : c;
            double x_c0 = x;
            if (!(x == 20)) {
                if ((x_prev <= 20 && 20 <= x) || (x <= 20 && 20 <= x_prev)) {
                    x_c0 = 20;
                }
            }
            double c_c0 = c;
            if (!(c == 25)) {
                if ((c_prev <= 25 && 25 <= c) || (c <= 25 && 25 <= c_prev)) {
                    c_c0 = 25;
                }
            }
            double x_c1 = x;
            if (!(x == 20)) {
                if ((x_prev <= 20 && 20 <= x) || (x <= 20 && 20 <= x_prev)) {
                    x_c1 = 20;
                }
            }
            double c_c2 = c;
            if (!(c == 25)) {
                if ((c_prev <= 25 && 25 <= c) || (c <= 25 && 25 <= c_prev)) {
                    c_c2 = 25;
                }
            }
            if (ON && !OFF && x_c0 == 20 && c_c0 == 25) {
                x = x_c0;
                c = c_c0;
                double c_t0 = 0;
                c = c_t0;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t2b2;
                ON_out = 1;
            }
            else if (ON && !OFF && x_c1 == 20 && c >= 0 && c <= 25) {
                x = x_c1;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t2b1;
            }
            else if (!ON && !OFF && x == 20 && c_c2 == 25) {
                c = c_c2;
                double c_t0_ = 0;
                c = c_t0_;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t1b2;
                ON_out = 1;
            }
            else {
                stuck = 1;
            }
        }
        break;
    }
    case t1b2: {
        if (x == 20 && c >= 0 && c <= 15 && !ON && !OFF) {
            if (pstate != cstate) {
                C1_x = x;
                C1_c = c;
            }
            k = k + 1;
            x_u = t1b2_ode_1(C1_x);
            c_u = t1b2_ode_2(d, k, C1_c);
            cstate = t1b2;
        }
        else {
            double x_prev = (k >= 1) ? t1b2_ode_1(C1_x) : x;
            double c_prev = (k >= 1) ? t1b2_ode_2(d, k - 1, C1_c) : c;
            double x_c0 = x;
            if (!(x == 20)) {
                if ((x_prev <= 20 && 20 <= x) || (x <= 20 && 20 <= x_prev)) {
                    x_c0 = 20;
                }
            }
            double c_c0 = c;
            if (!(c == 15)) {
                if ((c_prev <= 15 && 15 <= c) || (c <= 15 && 15 <= c_prev)) {
                    c_c0 = 15;
                }
            }
            double x_c1 = x;
            if (!(x == 20)) {
                if ((x_prev <= 20 && 20 <= x) || (x <= 20 && 20 <= x_prev)) {
                    x_c1 = 20;
                }
            }
            double c_c2 = c;
            if (!(c == 15)) {
                if ((c_prev <= 15 && 15 <= c) || (c <= 15 && 15 <= c_prev)) {
                    c_c2 = 15;
                }
            }
            if (ON && !OFF && x_c0 == 20 && c_c0 == 15) {
                x = x_c0;
                c = c_c0;
                double c_t0 = 0;
                c = c_t0;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t2b1;
                OFF_out = 1;
            }
            else if (ON && !OFF && x_c1 == 20 && c >= 0 && c <= 15) {
                x = x_c1;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t2b2;
            }
            else if (!ON && !OFF && x == 20 && c_c2 == 15) {
                c = c_c2;
                double c_t0_ = 0;
                c = c_t0_;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t1b1;
                OFF_out = 1;
            }
            else {
                stuck = 1;
            }
        }
        break;
    }
    case t2b1: {
        if (x >= 20 && x <= 100 && c >= 0 && c <= 25 && !ON && !OFF) {
            if (pstate != cstate) {
                C1_x = t2b1_init_1(x);
                C1_c = c;
            }
            k = k + 1;
            x_u = t2b1_ode_1(d, k, C1_x);
            c_u = t2b1_ode_2(d, k, C1_c);
            cstate = t2b1;
        }
        else {
            double x_prev = (k >= 1) ? t2b1_ode_1(d, k - 1, C1_x) : x;
            double c_prev = (k >= 1) ? t2b1_ode_2(d, k - 1, C1_c) : c;
            double x_c0 = x;
            if (!(x == 100)) {
                if ((x_prev <= 100 && 100 <= x) || (x <= 100 && 100 <= x_prev)) {
                    x_c0 = 100;
                }
            }
            double c_c0 = c;
            if (!(c == 25)) {
                if ((c_prev <= 25 && 25 <= c) || (c <= 25 && 25 <= c_prev)) {
                    c_c0 = 25;
                }
            }
            double c_c1 = c;
            if (!(c == 25)) {
                if ((c_prev <= 25 && 25 <= c) || (c <= 25 && 25 <= c_prev)) {
                    c_c1 = 25;
                }
            }
            double x_c2 = x;
            if (!(x == 100)) {
                if ((x_prev <= 100 && 100 <= x) || (x <= 100 && 100 <= x_prev)) {
                    x_c2 = 100;
                }
            }
            double c_c4 = c;
            if (!(c == 25)) {
                if ((c_prev <= 25 && 25 <= c) || (c <= 25 && 25 <= c_prev)) {
                    c_c4 = 25;
                }
            }
            if (x_c0 == 100 && c_c0 == 25) {
                x = x_c0;
                c = c_c0;
                double c_t0 = 0;
                c = c_t0;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t3b2;
                ON_out = 1;
            }
            else if (OFF && !ON && c_c1 == 25) {
                c = c_c1;
                double c_t0_ = 0;
                c = c_t0_;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t4b2;
                ON_out = 1;
            }
            else if (x_c2 == 100 && c >= 0 && c <= 25) {
                x = x_c2;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t3b1;
            }
            else if (OFF && !ON && c >= 0 && c <= 25) {
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t4b1;
            }
            else if (!ON && !OFF && x >= 20 && x <= 100 && c_c4 == 25) {
                c = c_c4;
                double c_t0__ = 0;
                c = c_t0__;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t2b2;
                ON_out = 1;
            }
            else {
                stuck = 1;
            }
        }
        break;
    }
    case t2b2: {
        if (x >= 20 && x <= 100 && c >= 0 && c <= 15 && !ON && !OFF) {
            if (pstate != cstate) {
                C1_x = t2b2_init_1(x);
                C1_c = c;
            }
            k = k + 1;
            x_u = t2b2_ode_1(d, k, C1_x);
            c_u = t2b2_ode_2(d, k, C1_c);
            cstate = t2b2;
        }
        else {
            double x_prev = (k >= 1) ? t2b2_ode_1(d, k - 1, C1_x) : x;
            double c_prev = (k >= 1) ? t2b2_ode_2(d, k - 1, C1_c) : c;
            double x_c0 = x;
            if (!(x == 100)) {
                if ((x_prev <= 100 && 100 <= x) || (x <= 100 && 100 <= x_prev)) {
                    x_c0 = 100;
                }
            }
            double c_c0 = c;
            if (!(c == 15)) {
                if ((c_prev <= 15 && 15 <= c) || (c <= 15 && 15 <= c_prev)) {
                    c_c0 = 15;
                }
            }
            double c_c1 = c;
            if (!(c == 15)) {
                if ((c_prev <= 15 && 15 <= c) || (c <= 15 && 15 <= c_prev)) {
                    c_c1 = 15;
                }
            }
            double x_c2 = x;
            if (!(x == 100)) {
                if ((x_prev <= 100 && 100 <= x) || (x <= 100 && 100 <= x_prev)) {
                    x_c2 = 100;
                }
            }
            double c_c4 = c;
            if (!(c == 15)) {
                if ((c_prev <= 15 && 15 <= c) || (c <= 15 && 15 <= c_prev)) {
                    c_c4 = 15;
                }
            }
            if (x_c0 == 100 && c_c0 == 15) {
                x = x_c0;
                c = c_c0;
                double c_t0 = 0;
                c = c_t0;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t3b1;
                OFF_out = 1;
            }
            else if (OFF && !ON && c_c1 == 15) {
                c = c_c1;
                double c_t0_ = 0;
                c = c_t0_;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t4b1;
                OFF_out = 1;
            }
            else if (x_c2 == 100 && c >= 0 && c <= 15) {
                x = x_c2;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t3b2;
            }
            else if (OFF && !ON && c >= 0 && c <= 15) {
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t4b2;
            }
            else if (!ON && !OFF && x >= 20 && x <= 100 && c_c4 == 15) {
                c = c_c4;
                double c_t0__ = 0;
                c = c_t0__;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t2b1;
                OFF_out = 1;
            }
            else {
                stuck = 1;
            }
        }
        break;
    }
    case t3b1: {
        if (x == 100 && c >= 0 && c <= 25 && !ON && !OFF) {
            if (pstate != cstate) {
                C1_x = x;
                C1_c = c;
            }
            k = k + 1;
            x_u = t3b1_ode_1(C1_x);
            c_u = t3b1_ode_2(d, k, C1_c);
            cstate = t3b1;
        }
        else {
            double c_prev = (k >= 1) ? t3b1_ode_2(d, k - 1, C1_c) : c;
            double c_c0 = c;
            if (!(c == 25)) {
                if ((c_prev <= 25 && 25 <= c) || (c <= 25 && 25 <= c_prev)) {
                    c_c0 = 25;
                }
            }
            double c_c2 = c;
            if (!(c == 25)) {
                if ((c_prev <= 25 && 25 <= c) || (c <= 25 && 25 <= c_prev)) {
                    c_c2 = 25;
                }
            }
            if (OFF && !ON && c_c0 == 25) {
                c = c_c0;
                double c_t0 = 0;
                c = c_t0;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t4b2;
                ON_out = 1;
            }
            else if (OFF && !ON && c >= 0 && c <= 25) {
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t4b1;
            }
            else if (!ON && !OFF && x == 100 && c_c2 == 25) {
                c = c_c2;
                double c_t0_ = 0;
                c = c_t0_;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t3b2;
                ON_out = 1;
            }
            else {
                stuck = 1;
            }
        }
        break;
    }
    case t3b2: {
        if (x == 100 && c >= 0 && c <= 15 && !ON && !OFF) {
            if (pstate != cstate) {
                C1_x = x;
                C1_c = c;
            }
            k = k + 1;
            x_u = t3b2_ode_1(C1_x);
            c_u = t3b2_ode_2(d, k, C1_c);
            cstate = t3b2;
        }
        else {
            double c_prev = (k >= 1) ? t3b2_ode_2(d, k - 1, C1_c) : c;
            double c_c0 = c;
            if (!(c == 15)) {
                if ((c_prev <= 15 && 15 <= c) || (c <= 15 && 15 <= c_prev)) {
                    c_c0 = 15;
                }
            }
            double c_c2 = c;
            if (!(c == 15)) {
                if ((c_prev <= 15 && 15 <= c) || (c <= 15 && 15 <= c_prev)) {
                    c_c2 = 15;
                }
            }
            if (OFF && !ON && c_c0 == 15) {
                c = c_c0;
                double c_t0 = 0;
                c = c_t0;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t4b1;
                OFF_out = 1;
            }
            else if (OFF && !ON && c >= 0 && c <= 15) {
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t4b2;
            }
            else if (!ON && !OFF && x == 100 && c_c2 == 15) {
                c = c_c2;
                double c_t0_ = 0;
                c = c_t0_;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t3b1;
                OFF_out = 1;
            }
            else {
                stuck = 1;
            }
        }
        break;
    }
    case t4b1: {
        if (x >= 20 && x <= 100 && c >= 0 && c <= 25 && !ON && !OFF) {
            if (pstate != cstate) {
                C1_x = x;
                C1_c = c;
            }
            k = k + 1;
            x_u = t4b1_ode_1(d, k, C1_x);
            c_u = t4b1_ode_2(d, k, C1_c);
            cstate = t4b1;
        }
        else {
            double c_prev = (k >= 1) ? t4b1_ode_2(d, k - 1, C1_c) : c;
            double x_prev = (k >= 1) ? t4b1_ode_1(d, k - 1, C1_x) : x;
            double c_c0 = c;
            if (!(c == 25)) {
                if ((c_prev <= 25 && 25 <= c) || (c <= 25 && 25 <= c_prev)) {
                    c_c0 = 25;
                }
            }
            double x_c1 = x;
            if (!(x == 20)) {
                if ((x_prev <= 20 && 20 <= x) || (x <= 20 && 20 <= x_prev)) {
                    x_c1 = 20;
                }
            }
            double c_c1 = c;
            if (!(c == 25)) {
                if ((c_prev <= 25 && 25 <= c) || (c <= 25 && 25 <= c_prev)) {
                    c_c1 = 25;
                }
            }
            double x_c3 = x;
            if (!(x == 20)) {
                if ((x_prev <= 20 && 20 <= x) || (x <= 20 && 20 <= x_prev)) {
                    x_c3 = 20;
                }
            }
            double c_c4 = c;
            if (!(c == 25)) {
                if ((c_prev <= 25 && 25 <= c) || (c <= 25 && 25 <= c_prev)) {
                    c_c4 = 25;
                }
            }
            if (ON && !OFF && c_c0 == 25) {
                c = c_c0;
                double c_t0 = 0;
                c = c_t0;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t2b2;
                ON_out = 1;
            }
            else if (x_c1 == 20 && c_c1 == 25) {
                x = x_c1;
                c = c_c1;
                double c_t0_ = 0;
                c = c_t0_;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t1b2;
                ON_out = 1;
            }
            else if (ON && !OFF && c >= 0 && c <= 25) {
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t2b1;
            }
            else if (x_c3 == 20 && c >= 0 && c <= 25) {
                x = x_c3;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t1b1;
            }
            else if (!ON && !OFF && x >= 20 && x <= 100 && c_c4 == 25) {
                c = c_c4;
                double c_t0__ = 0;
                c = c_t0__;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t4b2;
                ON_out = 1;
            }
            else {
                stuck = 1;
            }
        }
        break;
    }
    case t4b2: {
        if (x >= 20 && x <= 100 && c >= 0 && c <= 15 && !ON && !OFF) {
            if (pstate != cstate) {
                C1_x = x;
                C1_c = c;
            }
            k = k + 1;
            x_u = t4b2_ode_1(d, k, C1_x);
            c_u = t4b2_ode_2(d, k, C1_c);
            cstate = t4b2;
        }
        else {
            double c_prev = (k >= 1) ? t4b2_ode_2(d, k - 1, C1_c) : c;
            double x_prev = (k >= 1) ? t4b2_ode_1(d, k - 1, C1_x) : x;
            double c_c0 = c;
            if (!(c == 15)) {
                if ((c_prev <= 15 && 15 <= c) || (c <= 15 && 15 <= c_prev)) {
                    c_c0 = 15;
                }
            }
            double x_c1 = x;
            if (!(x == 20)) {
                if ((x_prev <= 20 && 20 <= x) || (x <= 20 && 20 <= x_prev)) {
                    x_c1 = 20;
                }
            }
            double c_c1 = c;
            if (!(c == 15)) {
                if ((c_prev <= 15 && 15 <= c) || (c <= 15 && 15 <= c_prev)) {
                    c_c1 = 15;
                }
            }
            double x_c3 = x;
            if (!(x == 20)) {
                if ((x_prev <= 20 && 20 <= x) || (x <= 20 && 20 <= x_prev)) {
                    x_c3 = 20;
                }
            }
            double c_c4 = c;
            if (!(c == 15)) {
                if ((c_prev <= 15 && 15 <= c) || (c <= 15 && 15 <= c_prev)) {
                    c_c4 = 15;
                }
            }
            if (ON && !OFF && c_c0 == 15) {
                c = c_c0;
                double c_t0 = 0;
                c = c_t0;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t2b1;
                OFF_out = 1;
            }
            else if (x_c1 == 20 && c_c1 == 15) {
                x = x_c1;
                c = c_c1;
                double c_t0_ = 0;
                c = c_t0_;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t1b1;
                OFF_out = 1;
            }
            else if (ON && !OFF && c >= 0 && c <= 15) {
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t2b2;
            }
            else if (x_c3 == 20 && c >= 0 && c <= 15) {
                x = x_c3;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t1b2;
            }
            else if (!ON && !OFF && x >= 20 && x <= 100 && c_c4 == 15) {
                c = c_c4;
                double c_t0__ = 0;
                c = c_t0__;
                x_u = x;
                c_u = c;
                k = 0;
                cstate = t4b1;
                OFF_out = 1;
            }
            else {
                stuck = 1;
            }
        }
        break;
    }
    }
    return cstate;
}
